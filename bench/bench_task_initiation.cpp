// E4 — "large scale dynamic task initiation"; the kernel PE "fields
// incoming messages and assigns available PE's to process them"; "messages
// arriving in the input queue of any cluster can be processed by any
// available PE" (Hardware architecture).
//
// Part 1: initiation storms — K replications of a short task, flat fan-out.
// Part 2: tree fan-out vs flat fan-out (distributing the initiation load
//         over many parents).
// Part 3: any-PE pickup — the same storm on machines with the same total
//         PE count but different kernel-to-worker ratios.
#include "bench_common.hpp"

#include <cmath>

#include "support/strings.hpp"

using namespace fem2;

namespace {

constexpr hw::Cycles kGrainCycles = 2'000;  // work per leaf task

void register_storm_tasks(navm::Runtime& runtime) {
  runtime.define_task("storm.leaf", [](navm::TaskContext& ctx) -> navm::Coro {
    ctx.charge(kGrainCycles);
    co_return navm::payload_int(1);
  });
  runtime.define_task("storm.branch",
                      [](navm::TaskContext& ctx) -> navm::Coro {
                        const auto fan = static_cast<std::uint32_t>(
                            navm::as_int(ctx.params()));
                        const auto results = co_await navm::forall(
                            ctx, "storm.leaf", fan,
                            [](std::uint32_t) { return sysvm::Payload{}; });
                        co_return navm::payload_int(
                            static_cast<std::int64_t>(results.size()));
                      });
  runtime.define_task("storm.flat", [](navm::TaskContext& ctx) -> navm::Coro {
    const auto k =
        static_cast<std::uint32_t>(navm::as_int(ctx.params()));
    const auto results = co_await navm::forall(
        ctx, "storm.leaf", k, [](std::uint32_t) { return sysvm::Payload{}; });
    co_return navm::payload_int(static_cast<std::int64_t>(results.size()));
  });
  runtime.define_task("storm.tree", [](navm::TaskContext& ctx) -> navm::Coro {
    const auto k = static_cast<std::uint32_t>(navm::as_int(ctx.params()));
    const auto branch = static_cast<std::uint32_t>(
        std::lround(std::sqrt(static_cast<double>(k))));
    const auto fan = (k + branch - 1) / branch;
    const auto results =
        co_await navm::forall(ctx, "storm.branch", branch,
                              [&](std::uint32_t) {
                                return navm::payload_int(fan);
                              });
    std::int64_t total = 0;
    for (const auto& r : results) total += navm::as_int(r);
    co_return navm::payload_int(total);
  });
}

void initiation_storm() {
  support::Table table(
      "Flat initiation storms on 4 clusters x 8 PEs (leaf grain 2k cycles)");
  table.set_header({"K tasks", "cycles", "initiations / Mcycle",
                    "ready-queue peak", "PE utilization %"});
  std::vector<std::uint32_t> storms = {8, 32, 128, 512};
  if (bench::smoke()) storms = {8, 32};
  for (const std::uint32_t k : storms) {
    bench::Stack stack(bench::machine_shape(4, 8));
    register_storm_tasks(*stack.runtime);
    const auto task = stack.runtime->launch("storm.flat",
                                            navm::payload_int(k));
    stack.runtime->run();
    FEM2_CHECK(stack.os->task_finished(task));
    const auto elapsed = stack.machine->now();
    const auto& metrics = stack.os->stats();
    table.row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(static_cast<std::uint64_t>(elapsed))
        .cell(static_cast<double>(metrics.tasks_initiated) /
                  (static_cast<double>(elapsed) / 1e6),
              1)
        .cell(metrics.ready_queue_peak)
        .cell(100.0 * stack.machine->metrics().pe_utilization(elapsed), 1);
    bench::note("storm_cycles_k" + std::to_string(k),
                static_cast<double>(elapsed), "cycles");
  }
  table.print(std::cout);
}

void tree_vs_flat() {
  const std::int64_t leaves = bench::smoke() ? 128 : 512;
  support::Table table("Fan-out shape, K = " + std::to_string(leaves) +
                       " leaves");
  table.set_header({"shape", "cycles", "kernel dispatches",
                    "ready-queue peak"});
  for (const char* shape : {"storm.flat", "storm.tree"}) {
    bench::Stack stack(bench::machine_shape(4, 8));
    register_storm_tasks(*stack.runtime);
    const auto task = stack.runtime->launch(shape, navm::payload_int(leaves));
    stack.runtime->run();
    FEM2_CHECK(stack.os->task_finished(task));
    table.row()
        .cell(shape)
        .cell(static_cast<std::uint64_t>(stack.machine->now()))
        .cell(stack.os->stats().kernel_dispatches)
        .cell(stack.os->stats().ready_queue_peak);
    bench::note(std::string(shape) + "_cycles",
                static_cast<double>(stack.machine->now()), "cycles");
  }
  table.print(std::cout);
}

void any_pe_pickup() {
  support::Table table(
      "Same 32 PEs, different cluster shapes: kernel fielding vs worker "
      "pool (K = 256)");
  table.set_header({"shape", "kernels", "workers/cluster", "cycles",
                    "PE utilization %"});
  const std::int64_t pickup_k = bench::smoke() ? 64 : 256;
  std::vector<std::pair<std::size_t, std::size_t>> shapes = {
      {32, 1}, {16, 2}, {8, 4}, {4, 8}, {2, 16}, {1, 32}};
  if (bench::smoke()) shapes = {{8, 4}, {4, 8}};
  for (const auto& [clusters, ppc] : shapes) {
    bench::Stack stack(bench::machine_shape(clusters, ppc));
    register_storm_tasks(*stack.runtime);
    const auto task = stack.runtime->launch("storm.flat",
                                            navm::payload_int(pickup_k));
    stack.runtime->run();
    FEM2_CHECK(stack.os->task_finished(task));
    const auto elapsed = stack.machine->now();
    table.row()
        .cell(std::to_string(clusters) + "x" + std::to_string(ppc))
        .cell(static_cast<std::uint64_t>(clusters))
        .cell(static_cast<std::uint64_t>(ppc > 1 ? ppc - 1 : 1))
        .cell(static_cast<std::uint64_t>(elapsed))
        .cell(100.0 * stack.machine->metrics().pe_utilization(elapsed), 1);
    bench::note("pickup_cycles_" + std::to_string(clusters) + "x" +
                    std::to_string(ppc),
                static_cast<double>(elapsed), "cycles");
  }
  table.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("E4", argc, argv);
  bench::print_header("E4 bench_task_initiation",
                      "large-scale dynamic task initiation & kernel "
                      "message fielding");
  initiation_storm();
  std::cout << "\n";
  tree_vs_flat();
  std::cout << "\n";
  any_pe_pickup();
  std::cout << "\nShape check: initiation throughput grows with K until the "
               "kernel PEs saturate;\ntree fan-out relieves the single "
               "parent; a pool of workers per kernel beats\none-PE clusters "
               "(any available PE processes the queue).\n";
  return bench::finish();
}
