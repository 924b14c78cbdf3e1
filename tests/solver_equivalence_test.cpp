// Golden-solution solver equivalence sweep: every modelled scene solved by
// dense Cholesky (the reference), skyline and CG+Jacobi must agree within
// kAgreementTol; CG iteration counts are asserted against recorded bounds
// so a preconditioner regression fails loudly.
// Also pins the duplicate-constraint behavior in assembly (deduplicated,
// conflicting values rejected) for both the skyline and CSR paths, and the
// distributed CG on the simulated machine with and without Jacobi
// preconditioning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "fem/mesh.hpp"
#include "fem/passembly.hpp"
#include "fem/solver.hpp"
#include "navm/parops.hpp"

namespace fem2 {
namespace {

using fem::ElementType;
using fem::Material;
using fem::SolverKind;
using fem::StructureModel;

/// Stated agreement tolerance: displacement inf-norm error relative to the
/// dense reference, with CG run at 1e-12 residual.  Conditioning of the
/// plate scenes amplifies the residual by ~1e4, so 1e-6 has ~2 orders of
/// headroom while still catching any assembly or preconditioner defect.
constexpr double kAgreementTol = 1e-6;

Material soft_material() {
  Material m;
  m.youngs_modulus = 1000.0;
  m.poisson_ratio = 0.25;
  m.area = 0.01;
  m.moment_of_inertia = 1e-4;
  m.thickness = 0.1;
  return m;
}

struct Scene {
  std::string name;
  StructureModel model;
  std::string load_set;
  std::size_t max_iters_jacobi;  ///< recorded bound for CG+Jacobi
};

StructureModel axial_bar() {
  StructureModel model;
  const auto mat = model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(1.5, 0);
  model.add_element(ElementType::Bar2, {0, 1}, mat);
  model.fix_node(0);
  model.add_constraint(1, 1);
  model.add_load("axial", 1, 0, 50.0);
  return model;
}

StructureModel prescribed_chain() {
  // Two-bar chain with a prescribed end displacement (nonzero u_c moves
  // through the rhs correction).
  StructureModel model;
  const auto mat = model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(1, 0);
  model.add_node(2, 0);
  model.add_element(ElementType::Bar2, {0, 1}, mat);
  model.add_element(ElementType::Bar2, {1, 2}, mat);
  model.add_constraint(0, 0, 0.0);
  model.add_constraint(0, 1);
  model.add_constraint(1, 1);
  model.add_constraint(2, 1);
  model.add_constraint(2, 0, 0.1);
  model.load_set("none");
  return model;
}

/// The fem_test / fem1_test scene catalogue: bar, beam, quad and tri
/// plates, truss bridge, the stiff (70 GPa) fem1 plate, and the
/// prescribed-displacement chain.  Iteration bounds are recorded from the
/// current solvers with ~30% headroom.
std::vector<Scene> scenes() {
  std::vector<Scene> out;
  out.push_back({"axial-bar", axial_bar(), "axial", 2});

  fem::FrameOptions beam;
  beam.segments = 8;
  beam.length = 4.0;
  beam.material = soft_material();
  out.push_back(
      {"cantilever-beam", fem::make_cantilever_beam(beam, 10.0), "tip", 30});

  fem::PlateMeshOptions quad;
  quad.nx = 8;
  quad.ny = 4;
  quad.material = soft_material();
  out.push_back({"plate-quad4", fem::make_cantilever_plate(quad, 5.0),
                 "tip-shear", 50});

  fem::PlateMeshOptions tri = quad;
  tri.element = ElementType::Tri3;
  out.push_back({"plate-tri3", fem::make_cantilever_plate(tri, 5.0),
                 "tip-shear", 95});

  fem::TrussOptions truss;
  truss.bays = 6;
  truss.material = soft_material();
  out.push_back({"truss-bridge", fem::make_truss_bridge(truss, 2.0), "deck",
                 33});

  fem::PlateMeshOptions stiff;
  stiff.nx = 12;
  stiff.ny = 4;
  stiff.material.youngs_modulus = 70e9;
  stiff.material.thickness = 0.004;
  out.push_back({"plate-stiff", fem::make_cantilever_plate(stiff, 1'500.0),
                 "tip-shear", 70});

  out.push_back({"prescribed-chain", prescribed_chain(), "none", 2});
  return out;
}

double max_abs_error(const fem::Displacements& a, const fem::Displacements& b) {
  EXPECT_EQ(a.values.size(), b.values.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.values.size(); ++i)
    m = std::max(m, std::abs(a.values[i] - b.values[i]));
  return m;
}

double max_abs(const fem::Displacements& u) {
  double m = 0.0;
  for (const double v : u.values) m = std::max(m, std::abs(v));
  return m;
}

TEST(SolverEquivalence, AllPathsAgreeOnEveryScene) {
  for (const Scene& scene : scenes()) {
    SCOPED_TRACE(scene.name);
    const auto reference = fem::solve_static(
        scene.model, scene.load_set, {.kind = SolverKind::DenseCholesky});
    const double scale = std::max(1.0, max_abs(reference.displacements));

    const auto skyline = fem::solve_static(
        scene.model, scene.load_set, {.kind = SolverKind::SkylineDirect});
    EXPECT_LE(max_abs_error(skyline.displacements, reference.displacements),
              kAgreementTol * scale);

    const auto jacobi = fem::solve_static(scene.model, scene.load_set,
                                          {.kind = SolverKind::PreconditionedCg,
                                           .tolerance = 1e-12});
    EXPECT_TRUE(jacobi.stats.converged);
    EXPECT_LE(max_abs_error(jacobi.displacements, reference.displacements),
              kAgreementTol * scale);
    EXPECT_LE(jacobi.stats.iterations, scene.max_iters_jacobi)
        << "CG+Jacobi iteration count regressed";
  }
}

// --- duplicate constraints ----------------------------------------------------

StructureModel duplicate_constraint_plate(bool duplicated) {
  fem::PlateMeshOptions options;
  options.nx = 6;
  options.ny = 3;
  options.material = soft_material();
  StructureModel model = fem::make_cantilever_plate(options, 5.0);
  if (duplicated) {
    // Re-state existing constraints (same values), as overlapping boundary
    // groups in scene files routinely do.
    const auto constraints = model.constraints;
    for (const auto& c : constraints) model.add_constraint(c.node, c.dof, c.value);
  }
  return model;
}

TEST(DuplicateConstraints, DeduplicatedForSkylineAndCsr) {
  const auto clean = duplicate_constraint_plate(false);
  const auto doubled = duplicate_constraint_plate(true);

  // Same reduced system: constraint duplication must not change the
  // sparsity, the values, or any solver's answer.
  const auto sys_clean = fem::assemble(clean);
  const auto sys_doubled = fem::assemble(doubled);
  EXPECT_EQ(sys_clean.dofs.free_dofs, sys_doubled.dofs.free_dofs);
  EXPECT_EQ(sys_clean.stiffness.nonzeros(), sys_doubled.stiffness.nonzeros());
  EXPECT_EQ(sys_clean.stiffness.values().size(),
            sys_doubled.stiffness.values().size());
  for (std::size_t i = 0; i < sys_clean.stiffness.values().size(); ++i)
    EXPECT_EQ(sys_clean.stiffness.values()[i],
              sys_doubled.stiffness.values()[i]);

  for (const SolverKind kind :
       {SolverKind::SkylineDirect, SolverKind::PreconditionedCg}) {
    const auto a = fem::solve_static(clean, "tip-shear", {.kind = kind});
    const auto b = fem::solve_static(doubled, "tip-shear", {.kind = kind});
    EXPECT_EQ(max_abs_error(a.displacements, b.displacements), 0.0)
        << fem::solver_kind_name(kind);
  }
}

TEST(DuplicateConstraints, ConflictingValuesThrow) {
  StructureModel model = axial_bar();
  model.add_constraint(1, 1, 0.25);  // node 1 dof 1 already constrained to 0
  EXPECT_THROW((void)fem::assemble(model), support::Error);
  EXPECT_THROW((void)fem::solve_static(model, "axial", {}), support::Error);
}

// --- distributed CG on the simulated machine ---------------------------------

struct Fem2Stack {
  hw::Machine machine;
  sysvm::Os os;
  navm::Runtime runtime;

  Fem2Stack() : machine(config()), os(machine), runtime(os) {
    navm::register_parallel_ops(runtime);
  }

  static hw::MachineConfig config() {
    hw::MachineConfig c;
    c.clusters = 4;
    c.pes_per_cluster = 4;
    c.memory_per_cluster = 64u << 20;
    return c;
  }
};

TEST(SolverEquivalence, DistributedCgMatchesHostSolvers) {
  fem::PlateMeshOptions options;
  options.nx = 12;
  options.ny = 4;
  options.material = soft_material();
  const auto model = fem::make_cantilever_plate(options, 5.0);
  const auto reference = fem::solve_static(
      model, "tip-shear", {.kind = SolverKind::DenseCholesky});
  const double scale = std::max(1.0, max_abs(reference.displacements));

  fem::ParallelSolveOptions popts;
  popts.workers = 4;
  popts.tolerance = 1e-10;

  Fem2Stack plain;
  const auto cg = fem::solve_static_parallel(model, "tip-shear", plain.runtime,
                                             popts);
  EXPECT_TRUE(cg.stats.converged);
  EXPECT_EQ(cg.stats.method, "fem2-distributed-cg");
  EXPECT_LE(max_abs_error(cg.displacements, reference.displacements),
            kAgreementTol * scale);

  popts.jacobi_preconditioner = true;
  Fem2Stack pre;
  const auto pcg = fem::solve_static_parallel(model, "tip-shear", pre.runtime,
                                              popts);
  EXPECT_TRUE(pcg.stats.converged);
  EXPECT_EQ(pcg.stats.method, "fem2-distributed-pcg-jacobi");
  EXPECT_LE(max_abs_error(pcg.displacements, reference.displacements),
            kAgreementTol * scale);

  // Diagonal preconditioning must not cost iterations on this mesh.
  EXPECT_LE(pcg.stats.iterations, cg.stats.iterations);

  // Determinism: an identical run is bit-identical.
  Fem2Stack again;
  const auto pcg2 = fem::solve_static_parallel(model, "tip-shear",
                                               again.runtime, popts);
  EXPECT_EQ(pcg2.stats.iterations, pcg.stats.iterations);
  EXPECT_EQ(max_abs_error(pcg2.displacements, pcg.displacements), 0.0);
}

TEST(SolverEquivalence, ParallelAssemblyBitwiseMatchesSerial) {
  // The host merge places each worker triplet with the serial path's
  // constraint scatter, in the serial element order: the assembled values
  // and the prescribed-value corrections must be bitwise equal.
  fem::PlateMeshOptions options;
  options.nx = 8;
  options.ny = 4;
  options.material = soft_material();
  auto plain = fem::make_cantilever_plate(options, 5.0);
  auto prescribed = plain;
  prescribed.add_constraint(fem::plate_node(options, 8, 0), 1, 0.01);
  prescribed.add_constraint(fem::plate_node(options, 8, 4), 0, -0.005);
  prescribed.add_constraint(fem::plate_node(options, 4, 4), 1, 0.003);

  const auto same_bits = [](std::span<const double> a,
                            std::span<const double> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  for (const auto* model : {&plain, &prescribed}) {
    const auto serial = fem::assemble(*model);
    Fem2Stack stack;
    fem::register_assembly_tasks(stack.runtime);
    const auto parallel = fem::assemble_parallel(*model, stack.runtime, 4);

    EXPECT_TRUE(std::ranges::equal(parallel.stiffness.col_idx(),
                                   serial.stiffness.col_idx()));
    EXPECT_TRUE(
        same_bits(parallel.stiffness.values(), serial.stiffness.values()));
    EXPECT_TRUE(same_bits(parallel.rhs_correction, serial.rhs_correction));
  }
  EXPECT_TRUE(std::ranges::any_of(fem::assemble(prescribed).rhs_correction,
                                  [](double v) { return v != 0.0; }));
}

}  // namespace
}  // namespace fem2
