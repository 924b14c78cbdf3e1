// FEM substrate tests: element formulations against analytic solutions,
// solver agreement, substructuring equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "fem/analysis.hpp"
#include "fem/assembly.hpp"
#include "fem/element.hpp"
#include "fem/mesh.hpp"
#include "fem/solver.hpp"
#include "fem/substructure.hpp"

namespace fem2::fem {
namespace {

Material soft_material() {
  Material m;
  m.youngs_modulus = 1000.0;
  m.poisson_ratio = 0.25;
  m.area = 0.01;
  m.moment_of_inertia = 1e-4;
  m.thickness = 0.1;
  return m;
}

TEST(FemElements, BarAxialStiffness) {
  StructureModel model;
  const auto mat = model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(2, 0);
  model.add_element(ElementType::Bar2, {0, 1}, mat);
  const auto k = element_stiffness(model, model.elements[0]);
  const double ea_l = 1000.0 * 0.01 / 2.0;
  EXPECT_NEAR(k(0, 0), ea_l, 1e-12);
  EXPECT_NEAR(k(0, 2), -ea_l, 1e-12);
  EXPECT_NEAR(k(1, 1), 0.0, 1e-12);  // no transverse stiffness
  EXPECT_TRUE(k.is_symmetric());
}

TEST(FemElements, BarUnderAxialLoad) {
  // Fixed-free bar, axial tip force: delta = FL/EA, sigma = F/A.
  StructureModel model;
  const auto mat = model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(1.5, 0);
  model.add_element(ElementType::Bar2, {0, 1}, mat);
  model.fix_node(0);
  model.add_constraint(1, 1);  // keep it 1-D
  model.add_load("axial", 1, 0, 50.0);

  const auto result = analyze(model, "axial");
  const double expected_delta = 50.0 * 1.5 / (1000.0 * 0.01);
  EXPECT_NEAR(result.solution.displacements.at(1, 0), expected_delta, 1e-9);
  EXPECT_NEAR(result.stresses[0].sigma_xx, 50.0 / 0.01, 1e-6);
}

TEST(FemElements, CantileverBeamTipDeflection) {
  // Euler-Bernoulli: delta_tip = P L^3 / (3 E I), exact for beam elements.
  FrameOptions options;
  options.segments = 8;
  options.length = 4.0;
  options.material = soft_material();
  const double p = 10.0;
  StructureModel model = make_cantilever_beam(options, p);

  const auto result = analyze(model, "tip",
                              {.kind = SolverKind::SkylineDirect});
  const double e = options.material.youngs_modulus;
  const double i = options.material.moment_of_inertia;
  const double expected = -p * std::pow(options.length, 3) / (3.0 * e * i);
  EXPECT_NEAR(result.solution.displacements.at(options.segments, 1), expected,
              std::abs(expected) * 1e-9);
}

TEST(FemElements, TriangleRigidBodyMotionHasNoStrainEnergy) {
  StructureModel model;
  const auto mat = model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(1, 0);
  model.add_node(0, 1);
  model.add_element(ElementType::Tri3, {0, 1, 2}, mat);
  const auto k = element_stiffness(model, model.elements[0]);
  // Uniform translation: zero force.
  const std::vector<double> translation = {1, 0, 1, 0, 1, 0};
  const auto f = k.multiply(translation);
  for (const double v : f) EXPECT_NEAR(v, 0.0, 1e-9);
  EXPECT_TRUE(k.is_symmetric(1e-9));
}

TEST(FemElements, Quad4PatchUniaxialStress) {
  // Single quad stretched along x: sigma_xx = E * strain / (1 - nu^2) *
  // adjusted; with free lateral contraction sigma_xx = E*eps_xx.
  StructureModel model;
  Material m = soft_material();
  m.poisson_ratio = 0.0;  // decouple for an exact hand value
  const auto mat = model.add_material(m);
  model.add_node(0, 0);
  model.add_node(1, 0);
  model.add_node(1, 1);
  model.add_node(0, 1);
  model.add_element(ElementType::Quad4, {0, 1, 2, 3}, mat);

  Displacements u;
  u.dofs_per_node = 2;
  // eps_xx = 0.01 uniform.
  u.values = {0, 0, 0.01, 0, 0.01, 0, 0, 0};
  const auto s = element_stress(model, 0, u);
  EXPECT_NEAR(s.sigma_xx, 1000.0 * 0.01, 1e-9);
  EXPECT_NEAR(s.sigma_yy, 0.0, 1e-9);
  EXPECT_NEAR(s.tau_xy, 0.0, 1e-9);
}

TEST(FemSolvers, AllSolversAgreeOnCantileverPlate) {
  PlateMeshOptions options;
  options.nx = 8;
  options.ny = 4;
  options.material = soft_material();
  StructureModel model = make_cantilever_plate(options, 5.0);

  const auto reference =
      solve_static(model, "tip-shear", {.kind = SolverKind::DenseCholesky});
  const std::size_t tip = plate_node(options, options.nx, options.ny / 2);
  const double ref_tip = reference.displacements.at(tip, 1);
  EXPECT_LT(ref_tip, 0.0);  // deflects downward

  for (const SolverKind kind :
       {SolverKind::SkylineDirect, SolverKind::ConjugateGradient,
        SolverKind::PreconditionedCg, SolverKind::GaussSeidel,
        SolverKind::Sor}) {
    SolverOptions o;
    o.kind = kind;
    o.tolerance = 1e-12;
    o.max_iterations = 200'000;
    const auto solution = solve_static(model, "tip-shear", o);
    EXPECT_NEAR(solution.displacements.at(tip, 1), ref_tip,
                std::abs(ref_tip) * 1e-5)
        << solver_kind_name(kind);
  }
}

TEST(FemSolvers, TrussBridgeDeflectsDownAndBalances) {
  TrussOptions options;
  options.bays = 6;
  options.material = soft_material();
  StructureModel model = make_truss_bridge(options, 2.0);
  const auto result = analyze(model, "deck");
  ASSERT_TRUE(result.solution.stats.converged);
  // Midspan bottom node deflects downward.
  EXPECT_LT(result.solution.displacements.at(3, 1), 0.0);
  // Peak stress is finite and positive.
  EXPECT_GT(result.peak.von_mises, 0.0);
}

TEST(FemSubstructure, MatchesDirectSolve) {
  PlateMeshOptions options;
  options.nx = 12;
  options.ny = 4;
  options.material = soft_material();
  StructureModel model = make_cantilever_plate(options, 3.0);

  const auto direct =
      solve_static(model, "tip-shear", {.kind = SolverKind::DenseCholesky});
  const auto partition = partition_by_x(model, 4);
  SubstructureStats stats;
  const auto sub = solve_substructured(model, "tip-shear", partition, &stats);

  EXPECT_EQ(stats.substructures, 4u);
  EXPECT_GT(stats.interface_dofs, 0u);
  EXPECT_LT(stats.residual, 1e-8);
  for (std::size_t i = 0; i < direct.displacements.values.size(); ++i) {
    EXPECT_NEAR(sub.displacements.values[i], direct.displacements.values[i],
                1e-8 + std::abs(direct.displacements.values[i]) * 1e-6);
  }
}

TEST(FemAssembly, ConstraintEliminationAndPrescribedValues) {
  // Two-bar chain with a prescribed end displacement.
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
  model.add_constraint(2, 0, 0.1);  // pull the right end out
  model.load_set("none");

  const auto solution =
      solve_static(model, "none", {.kind = SolverKind::DenseCholesky});
  // Middle node sits halfway by symmetry of the two identical bars.
  EXPECT_NEAR(solution.displacements.at(1, 0), 0.05, 1e-12);
  EXPECT_NEAR(solution.displacements.at(2, 0), 0.1, 1e-12);
}

TEST(FemElements, PlateMeshRefinementConverges) {
  // Tip deflection of the cantilever sheet must converge under mesh
  // refinement, and Tri3/Quad4 discretizations must approach the same
  // answer (Quad4 from above stiffness-wise, CST stiffer still).
  auto tip_deflection = [](std::size_t nx, std::size_t ny,
                           ElementType element) {
    PlateMeshOptions options;
    options.nx = nx;
    options.ny = ny;
    options.width = 2.0;
    options.height = 0.5;
    options.element = element;
    options.material = soft_material();
    const auto model = make_cantilever_plate(options, 1.0);
    const auto solution =
        solve_static(model, "tip-shear", {.kind = SolverKind::SkylineDirect});
    return solution.displacements.at(plate_node(options, nx, ny / 2), 1);
  };

  const double q_coarse = tip_deflection(8, 2, ElementType::Quad4);
  const double q_mid = tip_deflection(16, 4, ElementType::Quad4);
  const double q_fine = tip_deflection(32, 8, ElementType::Quad4);
  const double t_fine = tip_deflection(32, 8, ElementType::Tri3);

  // Displacement grows toward the true value as constraints are released.
  EXPECT_LT(q_fine, 0.0);
  EXPECT_GT(std::abs(q_mid), std::abs(q_coarse));
  EXPECT_GT(std::abs(q_fine), std::abs(q_mid));
  // Successive refinements change the answer less and less.
  EXPECT_LT(std::abs(q_fine - q_mid), std::abs(q_mid - q_coarse));
  // CST is stiffer but within ~15% of Quad4 at this resolution.
  EXPECT_LT(std::abs(t_fine), std::abs(q_fine));
  EXPECT_NEAR(t_fine, q_fine, std::abs(q_fine) * 0.15);
}

TEST(FemSolvers, MultipleLoadSetsShareTheFactorization) {
  PlateMeshOptions options;
  options.nx = 8;
  options.ny = 4;
  options.material = soft_material();
  StructureModel model = make_cantilever_plate(options, 5.0);
  // A second, different load case on the same structure.
  model.add_load("top-pull", plate_node(options, options.nx, options.ny), 0,
                 25.0);

  const auto all = solve_static_all_load_sets(
      model, {.kind = SolverKind::SkylineDirect});
  ASSERT_EQ(all.size(), 2u);
  for (const auto& [name, solution] : all) {
    const auto individual = solve_static(model, name,
                                         {.kind = SolverKind::SkylineDirect});
    for (std::size_t i = 0; i < individual.displacements.values.size(); ++i) {
      EXPECT_NEAR(solution.displacements.values[i],
                  individual.displacements.values[i], 1e-12)
          << name;
    }
    EXPECT_NE(solution.stats.method.find("shared factorization"),
              std::string::npos);
  }
  // The two load cases produce genuinely different responses.
  EXPECT_NE(all.at("tip-shear").displacements.values.back(),
            all.at("top-pull").displacements.values.back());
}

TEST(FemSolvers, MultipleLoadSetsIterativePath) {
  PlateMeshOptions options;
  options.nx = 6;
  options.ny = 3;
  options.material = soft_material();
  StructureModel model = make_cantilever_plate(options, 5.0);
  model.add_load("side", plate_node(options, options.nx, 0), 0, 10.0);
  const auto all = solve_static_all_load_sets(
      model, {.kind = SolverKind::PreconditionedCg, .tolerance = 1e-11});
  ASSERT_EQ(all.size(), 2u);
  for (const auto& [name, solution] : all)
    EXPECT_TRUE(solution.stats.converged) << name;
}

TEST(FemModel, ValidationCatchesErrors) {
  StructureModel empty;
  EXPECT_THROW(empty.validate(), support::Error);

  StructureModel model;
  model.add_material(soft_material());
  model.add_node(0, 0);
  model.add_node(0, 0);  // same location
  model.add_element(ElementType::Bar2, {0, 1});
  EXPECT_THROW(model.validate(), support::Error);  // zero length
}


/// The pattern as it was built before count-then-fill: every element's
/// free-dof (row, col) pairs through SparsityPattern::from_pairs.
la::SparsityPattern pattern_from_pairs(const StructureModel& model,
                                       const DofMap& dofs) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (const auto& element : model.elements) {
    const std::size_t edof = element_dofs_per_node(element.type);
    std::vector<std::size_t> free;
    for (const std::size_t node : element.nodes)
      for (std::size_t d = 0; d < edof; ++d)
        if (const auto r = dofs.full_to_reduced[dofs.full_index(node, d)];
            r >= 0)
          free.push_back(static_cast<std::size_t>(r));
    for (const std::size_t r : free)
      for (const std::size_t c : free) pairs.emplace_back(r, c);
  }
  return la::SparsityPattern::from_pairs(dofs.free_dofs, dofs.free_dofs,
                                         std::move(pairs));
}

TEST(FemAssembly, SparsityPatternMatchesSortedPairs) {
  PlateMeshOptions quad;
  quad.nx = 9;
  quad.ny = 5;
  quad.material = soft_material();
  PlateMeshOptions tri = quad;
  tri.element = ElementType::Tri3;
  TrussOptions truss;
  truss.bays = 7;
  truss.material = soft_material();
  FrameOptions frame;
  frame.segments = 6;
  frame.material = soft_material();
  StructureModel prescribed = make_cantilever_plate(quad, 1.0);
  prescribed.add_constraint(plate_node(quad, 9, 5), 1, 0.01);

  const std::pair<const char*, StructureModel> models[] = {
      {"quad4", make_cantilever_plate(quad, 1.0)},
      {"tri3", make_cantilever_plate(tri, 1.0)},
      {"bar2", make_truss_bridge(truss, 1.0)},
      {"beam2", make_cantilever_beam(frame, 1.0)},
      {"quad4 prescribed", prescribed},
  };
  for (const auto& [name, model] : models) {
    const DofMap dofs = build_dof_map(model);
    const auto got = build_sparsity_pattern(model, dofs);
    const auto want = pattern_from_pairs(model, dofs);
    EXPECT_EQ(got->rows(), want.rows()) << name;
    EXPECT_EQ(got->cols(), want.cols()) << name;
    EXPECT_TRUE(std::ranges::equal(got->row_ptr(), want.row_ptr())) << name;
    EXPECT_TRUE(std::ranges::equal(got->col_idx(), want.col_idx())) << name;
    EXPECT_EQ(got->storage_bytes(), want.storage_bytes()) << name;
  }
}

}  // namespace
}  // namespace fem2::fem
