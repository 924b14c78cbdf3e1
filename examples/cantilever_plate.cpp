// Cantilever plate on the simulated FEM-2 machine.
//
// Solves the same plane-stress cantilever twice: sequentially on the host,
// and distributed across the simulated clusters with the numerical
// analyst's VM (tasks + windows + collectors).  Prints the machine's
// processing/storage/communication metrics — the quantities the paper's
// simulation program was designed to measure.
#include <iostream>

#include "fem/mesh.hpp"
#include "fem/solver.hpp"
#include "navm/parops.hpp"
#include "support/strings.hpp"

using namespace fem2;

int main() {
  fem::PlateMeshOptions mesh;
  mesh.nx = 24;
  mesh.ny = 8;
  mesh.width = 3.0;
  mesh.height = 1.0;
  mesh.material.youngs_modulus = 70e9;  // aluminium
  mesh.material.thickness = 0.005;
  const auto model = fem::make_cantilever_plate(mesh, 2'000.0);

  const std::size_t tip = fem::plate_node(mesh, mesh.nx, mesh.ny / 2);

  // --- sequential reference ------------------------------------------------
  const auto sequential = fem::solve_static(
      model, "tip-shear", {.kind = fem::SolverKind::ConjugateGradient});
  std::cout << "sequential  " << sequential.stats.method << ": tip deflection "
            << sequential.displacements.at(tip, 1) << " m in "
            << sequential.stats.iterations << " iterations\n";

  // --- distributed on the simulated FEM-2 ----------------------------------
  hw::MachineConfig config;
  config.clusters = 4;
  config.pes_per_cluster = 4;
  hw::Machine machine(config);
  hw::Tracer tracer;
  machine.set_tracer(&tracer);
  sysvm::Os os(machine);
  navm::Runtime runtime(os);
  navm::register_parallel_ops(runtime);

  const auto parallel = fem::solve_static_parallel(
      model, "tip-shear", runtime, {.workers = 8, .tolerance = 1e-10});
  std::cout << "distributed " << parallel.stats.method << ": tip deflection "
            << parallel.displacements.at(tip, 1) << " m in "
            << parallel.stats.iterations << " iterations\n\n";

  const double delta = std::abs(parallel.displacements.at(tip, 1) -
                                sequential.displacements.at(tip, 1));
  std::cout << "agreement: |delta| = " << delta << "\n\n";

  std::cout << "FEM-2 machine (" << config.clusters << " clusters x "
            << config.pes_per_cluster << " PEs):\n  "
            << machine.metrics().summary(machine.now()) << "\n";
  const auto& osm = os.stats();
  std::cout << "  tasks " << osm.tasks_initiated << ", kernel dispatches "
            << osm.kernel_dispatches << ", steps " << osm.steps_executed
            << "\n  messages by type:\n";
  for (std::size_t t = 0; t < sysvm::kMessageTypeCount; ++t) {
    if (osm.messages_sent[t] == 0) continue;
    std::cout << "    "
              << sysvm::message_type_name(static_cast<sysvm::MessageType>(t))
              << ": " << osm.messages_sent[t] << " ("
              << support::format_bytes(osm.message_bytes_sent[t]) << ")\n";
  }

  // Timeline view: the first stretch of the solve, PE by PE.
  const hw::Cycles window = std::min<hw::Cycles>(machine.now(), 600'000);
  std::cout << "\n" << tracer.render_pe_gantt(config, 0, window, 64)
            << tracer.render_message_profile(0, window, 64);
  return delta < 1e-6 ? 0 : 1;
}
