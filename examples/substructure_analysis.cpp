// Substructure analysis — the paper's second level of parallelism
// ("parallelism in the substructure analysis of a larger structure").
//
// A long panel is split into vertical bands; each band condenses its
// interior onto the interface in its own FEM-2 task, the driver solves the
// interface system, and interiors are recovered in parallel.  The result is
// compared against the monolithic direct solve.
#include <iostream>

#include "fem/mesh.hpp"
#include "fem/substructure.hpp"
#include "support/strings.hpp"

using namespace fem2;

int main() {
  fem::PlateMeshOptions mesh;
  mesh.nx = 32;
  mesh.ny = 6;
  mesh.width = 8.0;
  mesh.height = 1.5;
  mesh.material.youngs_modulus = 200e9;
  mesh.material.thickness = 0.008;
  const auto model = fem::make_cantilever_plate(mesh, 10'000.0);
  const std::size_t tip = fem::plate_node(mesh, mesh.nx, mesh.ny / 2);

  const auto direct = fem::solve_static(
      model, "tip-shear", {.kind = fem::SolverKind::SkylineDirect});
  std::cout << "monolithic " << direct.stats.method << ": tip "
            << direct.displacements.at(tip, 1) << " m\n";

  const auto partition = fem::partition_by_x(model, 4);

  // Sequential condensation (reference).
  fem::SubstructureStats seq_stats;
  const auto sequential =
      fem::solve_substructured(model, "tip-shear", partition, &seq_stats);
  std::cout << "sequential condensation: tip "
            << sequential.displacements.at(tip, 1) << " m ("
            << seq_stats.substructures << " substructures, "
            << seq_stats.interface_dofs << " interface dofs, residual "
            << seq_stats.residual << ")\n";

  // Parallel condensation on the simulated machine.
  hw::MachineConfig config;
  config.clusters = 4;
  config.pes_per_cluster = 2;
  config.memory_per_cluster = 64u << 20;
  hw::Machine machine(config);
  sysvm::Os os(machine);
  navm::Runtime runtime(os);
  fem::register_substructure_tasks(runtime);

  fem::SubstructureStats par_stats;
  const auto parallel = fem::solve_substructured_parallel(
      model, "tip-shear", partition, runtime, &par_stats);
  std::cout << "FEM-2 condensation:      tip "
            << parallel.displacements.at(tip, 1) << " m (residual "
            << par_stats.residual << ")\n\n";

  std::cout << "machine: " << machine.metrics().summary(machine.now())
            << "\n";
  std::cout << "condensations ran as " << os.stats().tasks_initiated - 1
            << " worker tasks; interface solved in the driver task\n";

  const double delta = std::abs(parallel.displacements.at(tip, 1) -
                                direct.displacements.at(tip, 1));
  return delta < 1e-8 + std::abs(direct.displacements.at(tip, 1)) * 1e-5 ? 0
                                                                         : 1;
}
