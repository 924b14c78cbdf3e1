// E1 — "quantitative estimates of processing requirements, storage
// requirements, and communication requirements for a typical large-scale
// application" (FEM-2 paper, Current Status; the Adams–Voigt analysis).
//
// Sweeps a plane-stress cantilever sheet through growing grids and runs the
// full pipeline on the simulated FEM-2 machine: parallel assembly, the
// distributed solve, and (host-modeled) stress recovery; reports per-phase
// processing, storage and communication.
#include "bench_common.hpp"

#include "fem/assembly.hpp"
#include "fem/passembly.hpp"
#include "fem/stress.hpp"
#include "support/strings.hpp"

using namespace fem2;

int main(int argc, char** argv) {
  bench::init("E1", argc, argv);
  bench::print_header(
      "E1 bench_requirements",
      "processing / storage / communication of a typical large application");

  const auto config = bench::machine_shape(4, 4);

  std::vector<std::pair<std::size_t, std::size_t>> grids = {
      {8, 4}, {16, 8}, {32, 8}, {48, 12}, {64, 16}, {96, 24}};
  if (bench::smoke()) grids = {{8, 4}, {16, 8}};

  support::Table table(
      "Cantilever sheet pipeline on 4 clusters x 4 PEs "
      "(assembly: 8 tasks; solve: 8 CG workers; stress: 8 tasks — all "
      "simulated)");
  table.set_header({"grid", "dofs", "nnz", "assemble Mcyc", "solve Mcyc",
                    "stress Mcyc", "iters", "msgs", "traffic",
                    "model bytes", "matrix bytes", "mem high water"});

  for (const auto& [nx, ny] : grids) {
    const auto model = bench::cantilever_sheet(nx, ny);

    // Phase 1: parallel assembly on its own machine instance.
    bench::Stack assembly_stack(config);
    fem::register_assembly_tasks(*assembly_stack.runtime);
    fem::ParallelAssemblyStats assembly_stats;
    const auto system = fem::assemble_parallel(model, *assembly_stack.runtime,
                                               8, &assembly_stats);

    // Phase 2: distributed solve on a fresh machine.
    bench::ParallelRun run(model, 8, config);
    const auto& machine_metrics = run.stack.machine->metrics();
    const auto& os_metrics = run.stack.os->stats();

    // Phase 3: stress recovery, also fanned out on a fresh machine.
    bench::Stack stress_stack(config);
    fem::register_stress_tasks(*stress_stack.runtime);
    fem::ParallelStressStats stress_stats;
    (void)fem::compute_stresses_parallel(model, run.solution.displacements,
                                         *stress_stack.runtime, 8,
                                         &stress_stats);
    const double stress_mcyc =
        static_cast<double>(stress_stats.elapsed) / 1e6;

    const auto total_messages =
        os_metrics.total_messages() +
        assembly_stack.os->stats().total_messages() +
        stress_stack.os->stats().total_messages();
    const auto total_bytes =
        machine_metrics.total_bytes() +
        assembly_stack.machine->metrics().total_bytes() +
        stress_stack.machine->metrics().total_bytes();

    table.row()
        .cell(std::to_string(nx) + "x" + std::to_string(ny))
        .cell(static_cast<std::uint64_t>(system.dofs.free_dofs))
        .cell(static_cast<std::uint64_t>(system.stiffness.nonzeros()))
        .cell(static_cast<double>(assembly_stats.elapsed) / 1e6, 2)
        .cell(static_cast<double>(run.elapsed()) / 1e6, 2)
        .cell(stress_mcyc, 3)
        .cell(static_cast<std::uint64_t>(run.solution.stats.iterations))
        .cell(total_messages)
        .cell(support::format_bytes(total_bytes))
        .cell(support::format_bytes(model.storage_bytes()))
        .cell(support::format_bytes(system.stiffness.storage_bytes()))
        .cell(support::format_bytes(machine_metrics.memory_high_water()));

    const std::string grid =
        std::to_string(nx) + "x" + std::to_string(ny);
    bench::note("assemble_cycles_" + grid,
                static_cast<double>(assembly_stats.elapsed), "cycles");
    bench::note("solve_cycles_" + grid, static_cast<double>(run.elapsed()),
                "cycles");
    bench::note("solve_iterations_" + grid,
                static_cast<double>(run.solution.stats.iterations), "iters");
    bench::note("total_messages_" + grid,
                static_cast<double>(total_messages), "msgs");
    bench::note("total_bytes_" + grid, static_cast<double>(total_bytes),
                "bytes");
  }
  table.print(std::cout);

  std::cout << "\nShape check (paper: solve dominates; storage and traffic "
               "grow with the grid;\ncommunication is a significant, "
               "measurable fraction of the solve).\n";
  return bench::finish();
}
