#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <utility>

#include "analyze/analyzer.hpp"
#include "fem/mesh.hpp"
#include "fem/solver.hpp"
#include "hw/event.hpp"
#include "hw/fault.hpp"
#include "hw/machine.hpp"
#include "hw/trace.hpp"
#include "navm/parops.hpp"
#include "navm/runtime.hpp"
#include "sysvm/os.hpp"

namespace fem2::hw {
namespace {

TEST(Engine, ProcessesInTimeThenFifoOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule(10, [&] { order.push_back(2); });
  engine.schedule(5, [&] { order.push_back(1); });
  engine.schedule(10, [&] { order.push_back(3); });  // same time: FIFO
  engine.schedule(20, [&] { order.push_back(4); });
  EXPECT_EQ(engine.run(), 4u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(engine.now(), 20u);
}

TEST(Engine, ActionsMayScheduleMore) {
  Engine engine;
  int fired = 0;
  engine.schedule(1, [&] {
    ++fired;
    engine.schedule(1, [&] { ++fired; });
  });
  engine.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.now(), 2u);
}

TEST(Engine, RunUntilStopsAtLimit) {
  Engine engine;
  int fired = 0;
  engine.schedule(5, [&] { ++fired; });
  engine.schedule(15, [&] { ++fired; });
  engine.run_until(10);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(engine.idle());
  engine.run();
  EXPECT_EQ(fired, 2);
}

TEST(Engine, ProcessedAndPendingCounters) {
  Engine engine;
  engine.schedule(1, [] {});
  engine.schedule(2, [] {});
  EXPECT_EQ(engine.pending(), 2u);
  engine.run();
  EXPECT_EQ(engine.processed(), 2u);
  EXPECT_TRUE(engine.idle());
}

TEST(Engine, RejectsSchedulingInThePast) {
  Engine engine;
  engine.schedule(10, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(5, [] {}), support::CheckError);
}

// Equal-time events run in the order of the shard that scheduled them,
// whichever queue they sit in; each event sees its own shard as current.
TEST(Engine, EqualTimesRunInOriginShardOrder) {
  Engine engine;
  engine.configure(2, 100);
  std::vector<std::string> order;
  engine.schedule_on(1, 10, [&] {
    EXPECT_EQ(engine.current_shard(), 1u);
    engine.schedule_on(0, 50, [&] { order.push_back("from shard 1"); });
  });
  engine.schedule_on(0, 20, [&] {
    EXPECT_EQ(engine.current_shard(), 0u);
    engine.schedule_on(1, 50, [&] { order.push_back("from shard 0"); });
  });
  EXPECT_EQ(engine.current_shard(), engine.global_shard());
  engine.run();
  EXPECT_EQ(order,
            (std::vector<std::string>{"from shard 0", "from shard 1"}));
  EXPECT_EQ(engine.now(), 50u);
}

// --- Action: the engine's inline-stored callable ----------------------------

TEST(Action, MoveOnlyCaptureRuns) {
  Engine engine;
  int seen = 0;
  auto owned = std::make_unique<int>(7);
  engine.schedule(1, [&seen, owned = std::move(owned)] { seen = *owned; });
  engine.run();
  EXPECT_EQ(seen, 7);
}

TEST(Action, CaptureLargerThanInlineBufferRuns) {
  Engine engine;
  std::array<std::uint64_t, 32> big{};
  big.fill(3);
  static_assert(sizeof(big) > Action::kInlineBytes);
  std::uint64_t sum = 0;
  engine.schedule(1, [&sum, big] {
    for (const auto v : big) sum += v;
  });
  engine.run();
  EXPECT_EQ(sum, 96u);
}

/// Counts destructions of live (not moved-from) copies.
struct DestroyCounter {
  int* destroyed;
  explicit DestroyCounter(int* d) : destroyed(d) {}
  DestroyCounter(DestroyCounter&& o) noexcept
      : destroyed(std::exchange(o.destroyed, nullptr)) {}
  DestroyCounter& operator=(DestroyCounter&&) = delete;
  ~DestroyCounter() {
    if (destroyed != nullptr) ++*destroyed;
  }
};

TEST(Action, PendingActionsDestroyedOnceWithTheEngine) {
  int destroyed = 0;
  int ran = 0;
  {
    Engine engine;
    engine.configure(2, 100);
    for (int i = 0; i < 5; ++i) {
      engine.schedule_on(static_cast<std::uint32_t>(i % 3), 10 + i,
                         [&ran, c = DestroyCounter(&destroyed)] { ++ran; });
    }
    // A capture too large for the inline buffer takes the heap path.
    engine.schedule(50, [&ran, c = DestroyCounter(&destroyed),
                         pad = std::array<char, 256>{}] { ++ran; });
    engine.run_until(11);  // two of the six run; their captures die
    EXPECT_EQ(ran, 2);
    EXPECT_EQ(destroyed, 2);
  }
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(destroyed, 6);
}

TEST(Action, ThrowingActionLeavesEngineUsableAndSlotReused) {
  Engine engine;
  engine.schedule(1, [] { throw std::runtime_error("boom"); });
  EXPECT_EQ(engine.action_slots(), 1u);
  EXPECT_THROW(engine.run(), std::runtime_error);
  EXPECT_TRUE(engine.idle());
  int fired = 0;
  engine.schedule(1, [&] { ++fired; });
  EXPECT_EQ(engine.action_slots(), 1u);  // the thrower's slot, reused
  EXPECT_EQ(engine.run(), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(Machine, DropHandlerSeesPurgedAndDeadDestinationPacketsOnce) {
  MachineConfig config;
  config.clusters = 2;
  config.pes_per_cluster = 1;
  Machine machine(config);
  std::vector<std::uint64_t> dropped;
  machine.set_packet_drop_handler(
      [&](const Packet& p) { dropped.push_back(p.cargo); });
  machine.send_packet(ClusterId{0}, ClusterId{1}, 64, 1);
  machine.send_packet(ClusterId{0}, ClusterId{1}, 64, 2);
  machine.engine().run();
  ASSERT_EQ(machine.queue_depth(ClusterId{1}), 2u);  // no service drains it
  machine.send_packet(ClusterId{0}, ClusterId{1}, 64, 3);  // in flight
  machine.fail_cluster(ClusterId{1});  // purges the queued two
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{1, 2}));
  machine.engine().run();  // the third reaches a dead cluster
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(machine.metrics().network.dropped_messages, 3u);
  machine.send_packet(ClusterId{0}, ClusterId{0}, 64, 4);  // delivered
  machine.engine().run();
  EXPECT_EQ(dropped.size(), 3u);
}

MachineConfig small_config() {
  MachineConfig config;
  config.clusters = 2;
  config.pes_per_cluster = 3;
  config.memory_per_cluster = 1 << 16;
  return config;
}

TEST(Machine, PacketDeliveryNotifiesService) {
  Machine machine(small_config());
  std::vector<std::uint32_t> notified;
  machine.set_cluster_service(
      [&](ClusterId c) { notified.push_back(c.index); });
  machine.send_packet(ClusterId{0}, ClusterId{1}, 100, 42);
  EXPECT_EQ(machine.queue_depth(ClusterId{1}), 0u);  // still in flight
  machine.engine().run();
  EXPECT_EQ(machine.queue_depth(ClusterId{1}), 1u);
  ASSERT_EQ(notified.size(), 1u);
  EXPECT_EQ(notified[0], 1u);
  const auto packet = machine.pop_packet(ClusterId{1});
  ASSERT_TRUE(packet.has_value());
  EXPECT_EQ(packet->cargo, 42u);
  EXPECT_EQ(packet->source, (ClusterId{0}));
  EXPECT_FALSE(machine.pop_packet(ClusterId{1}).has_value());
}

TEST(Machine, IntraClusterIsFasterThanNetwork) {
  Machine machine(small_config());
  Cycles local_time = 0, remote_time = 0;
  machine.set_cluster_service([&](ClusterId c) {
    if (c.index == 0 && local_time == 0) local_time = machine.now();
    if (c.index == 1 && remote_time == 0) remote_time = machine.now();
  });
  machine.send_packet(ClusterId{0}, ClusterId{0}, 1000, {});
  machine.send_packet(ClusterId{0}, ClusterId{1}, 1000, {});
  machine.engine().run();
  EXPECT_GT(remote_time, local_time);
}

TEST(Machine, NetworkChannelSerializes) {
  auto config = small_config();
  config.model_network_contention = true;
  Machine machine(config);
  std::vector<Cycles> arrivals;
  machine.set_cluster_service(
      [&](ClusterId) { arrivals.push_back(machine.now()); });
  // Two large packets to the same destination must arrive apart by at
  // least their transfer time.
  machine.send_packet(ClusterId{0}, ClusterId{1}, 10'000, {});
  machine.send_packet(ClusterId{0}, ClusterId{1}, 10'000, {});
  machine.engine().run();
  ASSERT_EQ(arrivals.size(), 2u);
  const auto transfer = static_cast<Cycles>(
      config.network_cycles_per_byte * 10'000);
  EXPECT_GE(arrivals[1] - arrivals[0], transfer);
  EXPECT_EQ(machine.metrics().network.messages, 2u);
  EXPECT_EQ(machine.metrics().network.bytes, 20'000u);
}

TEST(Machine, WorkerAcquisitionSkipsKernelPe) {
  Machine machine(small_config());
  const ClusterId c{0};
  EXPECT_EQ(machine.kernel_pe(c), (PeId{c, 0}));
  EXPECT_EQ(machine.idle_workers(c), 2u);  // PEs 1 and 2
  const PeId w1 = machine.acquire_worker(c);
  const PeId w2 = machine.acquire_worker(c);
  EXPECT_TRUE(w1.valid());
  EXPECT_NE(w1.index, 0u);
  EXPECT_NE(w2.index, 0u);
  EXPECT_FALSE(machine.acquire_worker(c).valid());
  machine.release_worker(w1);
  EXPECT_EQ(machine.idle_workers(c), 1u);
}

TEST(Machine, SinglePeClusterKernelDoublesAsWorker) {
  MachineConfig config;
  config.clusters = 1;
  config.pes_per_cluster = 1;
  Machine machine(config);
  const PeId pe = machine.acquire_worker(ClusterId{0});
  EXPECT_TRUE(pe.valid());
  EXPECT_EQ(pe.index, 0u);
}

TEST(Machine, OccupyChargesBusyCycles) {
  Machine machine(small_config());
  const PeId pe = machine.acquire_worker(ClusterId{0});
  bool done = false;
  machine.occupy(pe, 500, [&] { done = true; });
  machine.engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(machine.now(), 500u);
  EXPECT_EQ(machine.metrics().pes[1].busy_cycles, 500u);
  EXPECT_EQ(machine.metrics().pes[1].work_items, 1u);
}

TEST(Machine, FailedPeDropsWorkAndFiresHandler) {
  Machine machine(small_config());
  std::vector<std::uint32_t> lost;
  machine.set_work_lost_handler(
      [&](ClusterId c) { lost.push_back(c.index); });
  const PeId pe = machine.acquire_worker(ClusterId{0});
  bool completed = false;
  machine.occupy(pe, 100, [&] { completed = true; });
  machine.engine().schedule(50, [&] { machine.fail_pe(pe); });
  machine.engine().run();
  EXPECT_FALSE(completed);
  // Handler fires at fail time (busy PE) and again at the dropped
  // completion; both refer to cluster 0.
  EXPECT_GE(lost.size(), 1u);
  for (const auto c : lost) EXPECT_EQ(c, 0u);
  EXPECT_EQ(machine.failed_pe_count(), 1u);
}

TEST(Machine, KernelPromotionOnFailure) {
  Machine machine(small_config());
  const ClusterId c{0};
  machine.fail_pe(PeId{c, 0});
  EXPECT_EQ(machine.kernel_pe(c), (PeId{c, 1}));
  machine.fail_pe(PeId{c, 1});
  EXPECT_EQ(machine.kernel_pe(c), (PeId{c, 2}));
  machine.fail_pe(PeId{c, 2});
  EXPECT_FALSE(machine.kernel_pe(c).valid());
  machine.restore_pe(PeId{c, 1});
  EXPECT_EQ(machine.kernel_pe(c), (PeId{c, 1}));
  EXPECT_EQ(machine.alive_pes(c), 1u);
}

TEST(Machine, RestoredPeInvalidatesOldWork) {
  Machine machine(small_config());
  int lost = 0;
  machine.set_work_lost_handler([&](ClusterId) { ++lost; });
  const PeId pe = machine.acquire_worker(ClusterId{0});
  bool completed = false;
  machine.occupy(pe, 100, [&] { completed = true; });
  machine.engine().schedule(10, [&] {
    machine.fail_pe(pe);
    machine.restore_pe(pe);  // power-cycled: generation moves on
  });
  machine.engine().run();
  EXPECT_FALSE(completed);
  EXPECT_GE(lost, 1);
}

TEST(Machine, MemoryAccounting) {
  Machine machine(small_config());
  const ClusterId c{0};
  machine.allocate(c, 1000);
  machine.allocate(c, 2000);
  EXPECT_EQ(machine.memory_in_use(c), 3000u);
  machine.release(c, 1000);
  EXPECT_EQ(machine.memory_in_use(c), 2000u);
  EXPECT_EQ(machine.metrics().clusters[0].memory_high_water, 3000u);
  EXPECT_THROW(machine.allocate(c, 1 << 20), OutOfMemory);
  EXPECT_THROW(machine.release(c, 99'999), support::CheckError);
}

TEST(Machine, UtilizationConservation) {
  // busy cycles of any PE can never exceed elapsed time.
  Machine machine(small_config());
  const PeId w = machine.acquire_worker(ClusterId{0});
  machine.occupy(w, 300, [&] { machine.release_worker(w); });
  machine.send_packet(ClusterId{0}, ClusterId{1}, 64, {});
  machine.engine().run();
  const auto elapsed = machine.now();
  for (const auto& pe : machine.metrics().pes)
    EXPECT_LE(pe.busy_cycles, elapsed);
  EXPECT_LE(machine.metrics().pe_utilization(elapsed), 1.0);
}

TEST(Machine, MemoryPortSerializesLocalHandoffs) {
  auto config = small_config();
  config.model_memory_contention = true;
  config.memory_cycles_per_byte = 1.0;
  Machine machine(config);
  std::vector<Cycles> arrivals;
  machine.set_cluster_service(
      [&](ClusterId) { arrivals.push_back(machine.now()); });
  machine.send_packet(ClusterId{0}, ClusterId{0}, 1'000, {});
  machine.send_packet(ClusterId{0}, ClusterId{0}, 1'000, {});
  machine.engine().run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_GE(arrivals[1] - arrivals[0], 1'000u);  // serialized on the port
  EXPECT_GE(machine.metrics().network.memory_port_busy_cycles, 2'000u);
}

TEST(Tracer, RecordsMachineActivity) {
  Machine machine(small_config());
  Tracer tracer;
  machine.set_tracer(&tracer);

  const PeId worker = machine.acquire_worker(ClusterId{0});
  machine.occupy(worker, 400, [&] { machine.release_worker(worker); });
  machine.send_packet(ClusterId{0}, ClusterId{1}, 128, {});
  machine.fail_pe(PeId{ClusterId{1}, 2});
  machine.engine().run();

  std::size_t sent = 0, delivered = 0, started = 0, finished = 0, failed = 0;
  for (const auto& e : tracer.events()) {
    switch (e.kind) {
      case TraceKind::MessageSent: ++sent; break;
      case TraceKind::MessageDelivered: ++delivered; break;
      case TraceKind::WorkStarted: ++started; break;
      case TraceKind::WorkFinished: ++finished; break;
      case TraceKind::PeFailed: ++failed; break;
      default: break;
    }
  }
  EXPECT_EQ(sent, 1u);
  EXPECT_EQ(delivered, 1u);
  EXPECT_EQ(started, 1u);
  EXPECT_EQ(finished, 1u);
  EXPECT_EQ(failed, 1u);

  const auto gantt = tracer.render_pe_gantt(machine.config(), 0,
                                            machine.now() + 1, 40);
  // The busy PE (cluster 0, pe 1) shows activity; kernel PEs are marked.
  EXPECT_NE(gantt.find("c0p1"), std::string::npos);
  EXPECT_NE(gantt.find("c0p0*"), std::string::npos);
  EXPECT_NE(gantt.find('#'), std::string::npos);

  const auto profile =
      tracer.render_message_profile(0, machine.now() + 1, 30);
  EXPECT_NE(profile.find("peak 1"), std::string::npos);
}

TEST(Tracer, BoundedCapacityDropsOldest) {
  Tracer tracer(100);
  for (std::uint64_t i = 0; i < 250; ++i)
    tracer.record({i, TraceKind::MessageSent, ClusterId{0}, 0, 1});
  EXPECT_LE(tracer.events().size(), 100u);
  EXPECT_GT(tracer.dropped(), 0u);
  // The newest events survive.
  EXPECT_EQ(tracer.events().back().time, 249u);
  tracer.clear();
  EXPECT_TRUE(tracer.events().empty());
}

TEST(Machine, TrafficMatrixCountsPairs) {
  Machine machine(small_config());
  machine.send_packet(ClusterId{0}, ClusterId{1}, 64, {});
  machine.send_packet(ClusterId{0}, ClusterId{1}, 64, {});
  machine.send_packet(ClusterId{1}, ClusterId{0}, 64, {});
  machine.send_packet(ClusterId{1}, ClusterId{1}, 64, {});  // local
  machine.engine().run();
  const auto& net = machine.metrics().network;
  EXPECT_EQ(net.traffic(0, 1), 2u);
  EXPECT_EQ(net.traffic(1, 0), 1u);
  EXPECT_EQ(net.traffic(1, 1), 1u);
  EXPECT_EQ(net.traffic(0, 0), 0u);
  const auto rendered = net.render_traffic_matrix();
  EXPECT_NE(rendered.find("c0"), std::string::npos);
  EXPECT_NE(rendered.find("2"), std::string::npos);
}

TEST(Machine, QueuePeakTracked) {
  Machine machine(small_config());
  for (int i = 0; i < 5; ++i)
    machine.send_packet(ClusterId{0}, ClusterId{1}, 64, {});
  machine.engine().run();
  EXPECT_EQ(machine.metrics().clusters[1].queue_peak, 5u);
  EXPECT_EQ(machine.metrics().clusters[0].packets_out, 5u);
  EXPECT_EQ(machine.metrics().clusters[1].packets_in, 5u);
}

// A seeded run must reproduce itself bit for bit: the same workload, seed
// and fault plan run twice in one process has to produce byte-identical
// machine metrics and OS stats dumps, bit-identical displacements, the
// same analyzer findings and the same tracer event list.  The workload is
// the full stack — distributed CG solve with the analyzer attached, losing
// a PE at 25% and a whole cluster at 50% of the fault-free run, on a lossy
// network with reliable transport.
TEST(Determinism, RepeatRunIdenticalUnderFaultPlan) {
  struct Outcome {
    Cycles elapsed = 0;
    std::string machine_dump;
    std::string os_dump;
    std::vector<double> displacements;
    std::vector<std::string> findings;
    std::vector<TraceEvent> trace;
  };

  MachineConfig config;
  config.clusters = 4;
  config.pes_per_cluster = 4;

  fem::PlateMeshOptions mesh;
  mesh.nx = 16;
  mesh.ny = 8;
  mesh.width = 2.0;
  mesh.height = 1.0;
  const auto model = fem::make_cantilever_plate(mesh, 1'000.0);

  const auto run = [&](Cycles kill_pe_at, Cycles kill_cluster_at) {
    Machine machine(config);
    Tracer tracer;
    machine.set_tracer(&tracer);
    sysvm::OsOptions options;
    options.reliable_transport = true;
    sysvm::Os os(machine, options);
    navm::Runtime runtime(os);
    navm::register_parallel_ops(runtime);
    analyze::Analyzer analyzer(runtime);

    FaultPlan plan;
    if (kill_cluster_at != 0) {
      plan.set_drop_probability(kill_pe_at / 2, 0.005);
      plan.fail_pe(kill_pe_at, ClusterId{1}, 2);
      plan.fail_cluster(kill_cluster_at, ClusterId{2});
    }
    FaultInjector injector(machine, plan);
    injector.arm();

    const auto solution = fem::solve_static_parallel(
        model, "tip-shear", runtime, {.workers = 8, .tolerance = 1e-8});
    analyzer.check_now();
    EXPECT_EQ(tracer.dropped(), 0u) << "trace cap too small to compare";

    Outcome outcome;
    outcome.elapsed = machine.now();
    outcome.machine_dump = machine.metrics().dump();
    outcome.os_dump = os.stats().dump();
    outcome.displacements = solution.displacements.values;
    for (const auto& finding : analyzer.findings())
      outcome.findings.push_back(finding.rule + "|" + finding.entity + "|" +
                                 finding.message);
    outcome.trace = tracer.events();
    return outcome;
  };

  // Fault-free probe fixes the kill times relative to the run length.
  const auto probe = run(0, 0);
  ASSERT_GT(probe.elapsed, 0u);
  const Cycles kill_pe_at = probe.elapsed / 4;
  const Cycles kill_cluster_at = probe.elapsed / 2;

  const auto first = run(kill_pe_at, kill_cluster_at);
  const auto second = run(kill_pe_at, kill_cluster_at);
  EXPECT_EQ(second.elapsed, first.elapsed);
  EXPECT_EQ(second.machine_dump, first.machine_dump);
  EXPECT_EQ(second.os_dump, first.os_dump);
  EXPECT_EQ(second.displacements, first.displacements);
  EXPECT_EQ(second.findings, first.findings);
  ASSERT_GT(first.trace.size(), 0u);
  ASSERT_EQ(second.trace.size(), first.trace.size());
  const auto diverged = std::mismatch(first.trace.begin(), first.trace.end(),
                                      second.trace.begin());
  EXPECT_TRUE(diverged.first == first.trace.end())
      << "tracer event lists diverge at event "
      << (diverged.first - first.trace.begin());
}

}  // namespace
}  // namespace fem2::hw
