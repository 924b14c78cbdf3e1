// Fault model, reliable messaging, and cluster-loss recovery:
//  * hw: cluster kills, lossy/severable links, the deterministic
//    FaultInjector;
//  * sysvm: sequenced/acked/retransmitted inter-cluster transport, task
//    relocation and tree restart after a cluster loss, heap exhaustion;
//  * end to end: a chaos run (cluster kill + PE kills + packet loss) must
//    produce bit-for-bit the displacements of a fault-free run.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fem/mesh.hpp"
#include "fem/passembly.hpp"
#include "fem/solver.hpp"
#include "hw/fault.hpp"
#include "navm/parops.hpp"
#include "navm/runtime.hpp"
#include "support/check.hpp"
#include "support/small_box.hpp"
#include "sysvm/os.hpp"

namespace fem2 {
namespace {

hw::MachineConfig machine_config(std::size_t clusters = 4,
                                 std::size_t ppc = 4) {
  hw::MachineConfig c;
  c.clusters = clusters;
  c.pes_per_cluster = ppc;
  c.memory_per_cluster = 64u << 20;
  return c;
}

struct Stack {
  hw::Machine machine;
  sysvm::Os os;
  navm::Runtime runtime;

  explicit Stack(hw::MachineConfig config = machine_config(),
                 sysvm::OsOptions options = {})
      : machine(config), os(machine, options), runtime(os) {
    navm::register_parallel_ops(runtime);
    fem::register_assembly_tasks(runtime);
    fem::register_stress_tasks(runtime);
  }
};

sysvm::OsOptions reliable() {
  sysvm::OsOptions o;
  o.reliable_transport = true;
  return o;
}

// --- hw fault model ---------------------------------------------------------

TEST(HwFaults, FailClusterPurgesStateAndFiresHandlerOnce) {
  hw::Machine machine(machine_config(3, 2));
  const hw::ClusterId victim{1};
  int fired = 0;
  machine.set_cluster_lost_handler([&](hw::ClusterId c) {
    ++fired;
    EXPECT_EQ(c.index, victim.index);
  });
  machine.allocate(victim, 4096);

  machine.fail_cluster(victim);
  EXPECT_FALSE(machine.cluster_alive(victim));
  EXPECT_TRUE(machine.cluster_alive(hw::ClusterId{0}));
  EXPECT_EQ(machine.alive_clusters(), 2u);
  EXPECT_EQ(machine.failed_cluster_count(), 1u);
  EXPECT_EQ(machine.alive_pes(victim), 0u);
  EXPECT_EQ(machine.memory_in_use(victim), 0u);
  EXPECT_EQ(machine.queue_depth(victim), 0u);
  EXPECT_EQ(fired, 1);

  machine.fail_cluster(victim);  // idempotent
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(machine.failed_cluster_count(), 1u);
}

TEST(HwFaults, PeKillCascadeBecomesClusterLoss) {
  hw::Machine machine(machine_config(2, 3));
  int fired = 0;
  machine.set_cluster_lost_handler([&](hw::ClusterId) { ++fired; });
  for (std::uint32_t p = 0; p < 3; ++p) {
    machine.fail_pe({hw::ClusterId{0}, p});
    EXPECT_EQ(fired, p == 2 ? 1 : 0);
  }
  EXPECT_FALSE(machine.cluster_alive(hw::ClusterId{0}));

  // Restoring a PE resurrects the cluster (blank, but alive).
  machine.restore_pe({hw::ClusterId{0}, 0});
  EXPECT_TRUE(machine.cluster_alive(hw::ClusterId{0}));
  EXPECT_EQ(machine.failed_cluster_count(), 0u);
}

TEST(HwFaults, SeveredLinkDropsEverySentPacket) {
  hw::Machine machine(machine_config(2, 1));
  const hw::ClusterId a{0}, b{1};
  machine.fail_link(a, b);
  EXPECT_TRUE(machine.link_severed(a, b));
  EXPECT_FALSE(machine.link_severed(b, a));  // directed

  std::vector<std::uint64_t> dropped;
  machine.set_packet_drop_handler(
      [&](const hw::Packet& p) { dropped.push_back(p.cargo); });
  machine.send_packet(a, b, 128, 7);
  machine.engine().run();
  EXPECT_EQ(machine.queue_depth(b), 0u);
  EXPECT_EQ(machine.metrics().network.dropped_messages, 1u);
  EXPECT_EQ(machine.metrics().network.dropped_bytes, 128u);
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{7}));

  machine.restore_link(a, b);
  machine.send_packet(a, b, 128, 8);
  machine.engine().run();
  EXPECT_EQ(machine.queue_depth(b), 1u);
  EXPECT_EQ(machine.metrics().network.dropped_messages, 1u);
  EXPECT_EQ(dropped, (std::vector<std::uint64_t>{7}));
}

TEST(HwFaults, LossyNetworkDropsSomePacketsDeterministically) {
  auto count_drops = [] {
    hw::Machine machine(machine_config(2, 1));
    machine.set_drop_probability(0.5);
    std::set<std::uint64_t> dropped;
    machine.set_packet_drop_handler([&](const hw::Packet& p) {
      EXPECT_TRUE(dropped.insert(p.cargo).second) << "cargo " << p.cargo;
    });
    for (std::uint64_t i = 0; i < 100; ++i)
      machine.send_packet(hw::ClusterId{0}, hw::ClusterId{1}, 64, i);
    machine.engine().run();
    // Every packet was either dropped (once) or delivered, never both.
    std::set<std::uint64_t> seen = dropped;
    while (const auto p = machine.pop_packet(hw::ClusterId{1}))
      EXPECT_TRUE(seen.insert(p->cargo).second) << "cargo " << p->cargo;
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(dropped.size(), machine.metrics().network.dropped_messages);
    return machine.metrics().network.dropped_messages;
  };
  const auto a = count_drops();
  EXPECT_GT(a, 0u);
  EXPECT_LT(a, 100u);
  EXPECT_EQ(a, count_drops());  // seeded: same lottery every run
}

TEST(HwFaults, IntraClusterTrafficIsNeverDropped) {
  hw::Machine machine(machine_config(2, 1));
  machine.set_drop_probability(0.99);
  for (int i = 0; i < 50; ++i)
    machine.send_packet(hw::ClusterId{0}, hw::ClusterId{0}, 64, 0);
  machine.engine().run();
  EXPECT_EQ(machine.metrics().network.dropped_messages, 0u);
  EXPECT_EQ(machine.queue_depth(hw::ClusterId{0}), 50u);
}

// --- fault plans and the injector -------------------------------------------

TEST(FaultPlan, RandomizedPlanRespectsSpec) {
  const auto config = machine_config(4, 4);
  hw::ChaosSpec spec;
  spec.window_begin = 1'000;
  spec.window_end = 9'000;
  spec.pe_kills = 3;
  spec.cluster_kills = 2;
  spec.link_cuts = 1;
  spec.drop_probability = 0.02;
  const auto plan = hw::FaultPlan::randomized(config, spec, 42);

  std::size_t cluster_kills = 0, pe_kills = 0, link_cuts = 0, drops = 0;
  hw::Cycles previous = 0;
  for (const auto& action : plan.actions()) {
    EXPECT_GE(action.at, spec.window_begin);
    EXPECT_GE(action.at, previous);  // sorted by time
    previous = action.at;
    switch (action.kind) {
      case hw::FaultAction::Kind::FailCluster:
        ++cluster_kills;
        break;
      case hw::FaultAction::Kind::FailPe:
        ++pe_kills;
        EXPECT_NE(action.pe, 0u);  // PE 0 is spared
        break;
      case hw::FaultAction::Kind::FailLink:
        ++link_cuts;
        break;
      case hw::FaultAction::Kind::SetDropProbability:
        ++drops;
        EXPECT_EQ(action.probability, spec.drop_probability);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(cluster_kills, 2u);
  EXPECT_EQ(pe_kills, 3u);
  EXPECT_EQ(link_cuts, 1u);
  EXPECT_EQ(drops, 1u);
  EXPECT_FALSE(plan.describe().empty());

  // Same seed, same plan; different seed, (almost surely) different plan.
  EXPECT_EQ(hw::FaultPlan::randomized(config, spec, 42).describe(),
            plan.describe());
  EXPECT_NE(hw::FaultPlan::randomized(config, spec, 43).describe(),
            plan.describe());
}

TEST(FaultPlan, RandomizedRejectsKillingEveryCluster) {
  hw::ChaosSpec spec;
  spec.window_end = 100;
  spec.cluster_kills = 4;
  EXPECT_THROW(hw::FaultPlan::randomized(machine_config(4, 4), spec, 1),
               support::CheckError);
}

TEST(FaultInjector, AppliesActionsAtTheirScheduledTimes) {
  hw::Machine machine(machine_config(2, 2));
  hw::FaultPlan plan;
  plan.fail_pe(500, hw::ClusterId{0}, 1)
      .fail_cluster(800, hw::ClusterId{1})
      .set_drop_probability(900, 0.25);
  hw::FaultInjector injector(machine, std::move(plan));
  injector.arm();
  machine.engine().run();

  EXPECT_EQ(injector.fired(), 3u);
  EXPECT_FALSE(machine.pe_alive({hw::ClusterId{0}, 1}));
  EXPECT_TRUE(machine.pe_alive({hw::ClusterId{0}, 0}));
  EXPECT_FALSE(machine.cluster_alive(hw::ClusterId{1}));
  EXPECT_EQ(machine.now(), 900u);
}

// --- reliable transport -----------------------------------------------------

TEST(ReliableTransport, SolvesCorrectlyOnAVeryLossyNetwork) {
  const auto model = fem::make_cantilever_plate({.nx = 10, .ny = 4}, 90.0);
  const auto reference = fem::solve_static(
      model, "tip-shear", {.kind = fem::SolverKind::SkylineDirect});

  auto run_once = [&] {
    Stack stack(machine_config(4, 4), reliable());
    stack.machine.set_drop_probability(0.3);
    const auto solution = fem::solve_static_parallel(
        model, "tip-shear", stack.runtime, {.workers = 8,
                                            .tolerance = 1e-11});
    struct Outcome {
      double tip;
      std::uint64_t retransmissions;
      std::uint64_t acks;
      std::uint64_t dropped;
    };
    return Outcome{solution.displacements.values.back(),
                   stack.os.stats().retransmissions,
                   stack.os.stats().acks_sent,
                   stack.machine.metrics().network.dropped_messages};
  };

  const auto a = run_once();
  const double want = reference.displacements.values.back();
  EXPECT_NEAR(a.tip, want, std::abs(want) * 1e-5 + 1e-12);
  EXPECT_GT(a.dropped, 0u);
  EXPECT_GT(a.retransmissions, 0u);
  EXPECT_GT(a.acks, 0u);

  // The loss lottery and the recovery protocol are both deterministic.
  const auto b = run_once();
  EXPECT_EQ(a.tip, b.tip);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.dropped, b.dropped);
}

TEST(ReliableTransport, OffByDefaultAddsNoProtocolTraffic) {
  const auto model = fem::make_cantilever_plate({.nx = 8, .ny = 3}, 50.0);
  Stack stack;
  (void)fem::solve_static_parallel(model, "tip-shear", stack.runtime,
                                   {.workers = 4});
  EXPECT_EQ(stack.os.stats().retransmissions, 0u);
  EXPECT_EQ(stack.os.stats().acks_sent, 0u);
  EXPECT_EQ(stack.os.stats().duplicates_dropped, 0u);
}

// Loss drops packets at send time, and a cluster kill purges an input
// queue and strands packets still flying to the dead cluster.  Every one
// of those paths hands the packet's frame back through the machine's drop
// handler, so nothing stays parked in the OS's in-flight table.
TEST(ReliableTransport, DroppedPacketsFreeTheirFrames) {
  const auto model = fem::make_cantilever_plate({.nx = 10, .ny = 4}, 90.0);
  Stack stack(machine_config(4, 4), reliable());
  stack.machine.set_drop_probability(0.1);
  hw::FaultPlan plan;
  plan.fail_cluster(60'000, hw::ClusterId{2});
  hw::FaultInjector injector(stack.machine, plan);
  injector.arm();
  (void)fem::solve_static_parallel(model, "tip-shear", stack.runtime,
                                   {.workers = 8, .tolerance = 1e-11});
  EXPECT_GT(stack.machine.metrics().network.dropped_messages, 0u);
  EXPECT_EQ(stack.os.stats().clusters_lost, 1u);
  EXPECT_EQ(stack.os.frames_in_flight(), 0u);
}

TEST(ReliableTransport, PermanentlySeveredLinkRaisesUnreachableError) {
  hw::Machine machine(machine_config(2, 2));
  auto options = reliable();
  options.max_retransmits = 3;
  sysvm::Os os(machine, options);
  machine.fail_link(hw::ClusterId{0}, hw::ClusterId{1});

  os.post(hw::ClusterId{0}, hw::ClusterId{1},
          sysvm::Message{sysvm::MsgLoadCode{"never-arrives", 64}});
  try {
    os.run();
    FAIL() << "expected support::Error";
  } catch (const support::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unreachable"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(os.stats().retransmissions, 3u);
}

// --- cluster-loss recovery --------------------------------------------------

TEST(Recovery, ClusterKillMidAssemblyRelocatesWorkAndMatchesSequential) {
  const auto model = fem::make_cantilever_plate({.nx = 10, .ny = 5}, 80.0);
  const auto sequential = fem::assemble(model);

  // Measure the fault-free duration, then kill a cluster halfway through.
  hw::Cycles duration = 0;
  {
    Stack stack(machine_config(4, 2), reliable());
    (void)fem::assemble_parallel(model, stack.runtime, 12);
    duration = stack.machine.now();
  }

  Stack stack(machine_config(4, 2), reliable());
  stack.machine.engine().schedule_at(duration / 2, [&] {
    stack.machine.fail_cluster(hw::ClusterId{3});
  });
  const auto parallel = fem::assemble_parallel(model, stack.runtime, 12);

  EXPECT_EQ(stack.os.stats().clusters_lost, 1u);
  EXPECT_GT(stack.os.stats().tasks_relocated, 0u);
  la::DenseMatrix diff = parallel.stiffness.to_dense();
  diff.add_scaled(sequential.stiffness.to_dense(), -1.0);
  EXPECT_LT(diff.max_abs(), 1e-9 * sequential.stiffness.to_dense().max_abs());
}

TEST(Recovery, KillingEveryClusterRaisesCleanErrorNotAHang) {
  const auto model = fem::make_cantilever_plate({.nx = 10, .ny = 5}, 80.0);
  hw::Cycles duration = 0;
  {
    Stack stack(machine_config(3, 2), reliable());
    (void)fem::assemble_parallel(model, stack.runtime, 8);
    duration = stack.machine.now();
  }

  Stack stack(machine_config(3, 2), reliable());
  stack.machine.engine().schedule_at(duration / 2, [&] {
    for (std::uint32_t c = 0; c < 3; ++c)
      stack.machine.fail_cluster(hw::ClusterId{c});
  });
  try {
    (void)fem::assemble_parallel(model, stack.runtime, 8);
    FAIL() << "expected support::Error";
  } catch (const support::Error& e) {
    EXPECT_NE(std::string(e.what()).find("unrecoverable"), std::string::npos)
        << e.what();
  }
}

// --- heap exhaustion --------------------------------------------------------

TEST(HeapExhaustion, FailedAllocationsAreCounted) {
  sysvm::Heap heap(1024);
  EXPECT_EQ(heap.allocate(4096), sysvm::Heap::kNullAddress);
  EXPECT_EQ(heap.stats().failed_allocations, 1u);
  EXPECT_NE(heap.allocate(512), sysvm::Heap::kNullAddress);
  EXPECT_EQ(heap.stats().failed_allocations, 1u);
}

navm::Coro memory_hog_body(navm::TaskContext& ctx) {
  // Far beyond memory_per_cluster below: the allocation must fail.
  ctx.api().heap_allocate(std::size_t{1} << 30);
  co_return sysvm::Payload{};
}

TEST(HeapExhaustion, TaskAllocationBeyondCapacityThrowsOutOfMemory) {
  auto config = machine_config(2, 2);
  config.memory_per_cluster = 1u << 20;
  Stack stack(config);
  stack.runtime.define_task("test.hog", memory_hog_body, {256, 1024});
  (void)stack.runtime.launch("test.hog");
  EXPECT_THROW(stack.runtime.run(), hw::OutOfMemory);

  std::uint64_t failed = 0;
  for (std::uint32_t c = 0; c < 2; ++c)
    failed += stack.os.heap(hw::ClusterId{c}).stats().failed_allocations;
  EXPECT_GE(failed, 1u);
}

// --- payload diagnostics ----------------------------------------------------

TEST(Payload, MismatchNamesExpectedAndActualTypes) {
  const auto p = sysvm::Payload::of(42, 8);
  try {
    (void)p.as<double>();
    FAIL() << "expected support::Error";
  } catch (const support::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("payload type mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find(typeid(double).name()), std::string::npos) << msg;
    EXPECT_NE(msg.find(typeid(int).name()), std::string::npos) << msg;
  }
}

TEST(Payload, MismatchOnEmptyPayloadSaysEmpty) {
  const sysvm::Payload empty;
  try {
    (void)empty.as<int>();
    FAIL() << "expected support::Error";
  } catch (const support::Error& e) {
    EXPECT_NE(std::string(e.what()).find("<empty>"), std::string::npos)
        << e.what();
  }
}

// Payload keeps the simulation's common values inline and falls back to
// the heap for larger ones; both kinds must survive copies, moves and a
// move-out unchanged.
struct BigPayload {
  std::array<double, 8> values{};
  std::string tag;
  friend bool operator==(const BigPayload&, const BigPayload&) = default;
};

template <typename T>
void expect_round_trips(const T& value) {
  const sysvm::Payload original = sysvm::Payload::of(value, 40);
  sysvm::Payload copy = original;
  EXPECT_EQ(copy.as<T>(), value);
  EXPECT_EQ(original.as<T>(), value);  // the source is untouched
  EXPECT_EQ(copy.bytes, 40u);
  sysvm::Payload moved = std::move(copy);
  EXPECT_EQ(moved.as<T>(), value);
  EXPECT_EQ(moved.bytes, 40u);

  sysvm::Payload target = sysvm::Payload::of(7, 8);  // replaced below
  target = original;
  EXPECT_EQ(target.as<T>(), value);
  target = sysvm::Payload::of(7, 8);
  target = std::move(moved);
  EXPECT_EQ(target.as<T>(), value);
  EXPECT_EQ(std::move(target).take<T>(), value);
  EXPECT_TRUE(target.empty());  // take() leaves the payload empty
}

TEST(Payload, CopyAndMoveRoundTripInlineAndHeapValues) {
  using Box = support::SmallBox<sysvm::Payload::kInlineBytes, true>;
  static_assert(Box::fits_inline<double>);
  static_assert(Box::fits_inline<std::int64_t>);
  static_assert(Box::fits_inline<std::vector<double>>);
  static_assert(Box::fits_inline<navm::Window>);
  static_assert(!Box::fits_inline<BigPayload>);
  expect_round_trips(std::vector<double>{1.0, 2.5, -3.0});
  expect_round_trips(BigPayload{{1, 2, 3, 4, 5, 6, 7, 8}, "heap"});
}

TEST(Payload, TakeOfTheWrongTypeThrowsMismatchAndKeepsTheValue) {
  auto p = sysvm::Payload::of(42, 8);
  try {
    (void)std::move(p).take<double>();
    FAIL() << "expected support::Error";
  } catch (const support::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("payload type mismatch"), std::string::npos) << msg;
    EXPECT_NE(msg.find(typeid(double).name()), std::string::npos) << msg;
    EXPECT_NE(msg.find(typeid(int).name()), std::string::npos) << msg;
  }
  EXPECT_EQ(p.as<int>(), 42);  // a failed take() moves nothing
  EXPECT_EQ(p.bytes, 8u);
}

// --- the chaos headline -----------------------------------------------------

struct PipelineOutcome {
  std::vector<double> displacements;
  std::vector<double> von_mises;
  hw::Cycles assembly_done = 0;
  hw::Cycles solve_done = 0;
  sysvm::OsStats stats;
};

// assemble -> distributed CG -> stress recovery, optionally with a seeded
// chaos plan armed between assembly and solve (so the cluster kill lands
// after the solve has started).
PipelineOutcome run_pipeline(const fem::StructureModel& model,
                             bool chaos, hw::Cycles solve_window = 0) {
  Stack stack(machine_config(4, 4), reliable());
  const auto system = fem::assemble_parallel(model, stack.runtime, 8);
  const hw::Cycles t0 = stack.machine.now();

  std::unique_ptr<hw::FaultInjector> injector;
  if (chaos) {
    hw::ChaosSpec spec;
    spec.window_begin = t0 + solve_window / 20;
    spec.window_end = t0 + solve_window / 2;
    spec.cluster_kills = 1;
    spec.pe_kills = 2;
    spec.drop_probability = 0.01;
    injector = std::make_unique<hw::FaultInjector>(
        stack.machine,
        hw::FaultPlan::randomized(stack.machine.config(), spec, 0xc4a05));
    injector->arm();
  }

  navm::CgProblem problem;
  problem.a = system.stiffness;
  problem.b = system.load_vector(model.load_sets.at("tip-shear"));
  problem.workers = 8;
  problem.tolerance = 1e-11;
  const auto task = stack.runtime.launch(navm::kCgDriverTask,
                                         navm::make_cg_problem(problem));
  stack.runtime.run();
  FEM2_CHECK_MSG(stack.os.task_finished(task), "chaos solve did not finish");
  const auto& cg = navm::as_cg_result(stack.runtime.result(task));
  FEM2_CHECK_MSG(cg.converged, "chaos solve did not converge");

  PipelineOutcome out;
  out.assembly_done = t0;
  out.solve_done = stack.machine.now();
  const auto displacements = system.expand(cg.x);
  out.displacements = displacements.values;
  for (const auto& s : fem::compute_stresses_parallel(
           model, displacements, stack.runtime, 6))
    out.von_mises.push_back(s.von_mises);
  out.stats = stack.os.stats();
  if (chaos) {
    // Every planned fault actually fired during the run.
    FEM2_CHECK(injector->fired() == injector->plan().size());
  }
  return out;
}

TEST(Chaos, FaultedPipelineMatchesFaultFreeRunBitForBit) {
  const auto model = fem::make_cantilever_plate({.nx = 12, .ny = 4}, 120.0);

  const auto clean = run_pipeline(model, false);
  const hw::Cycles solve_window = clean.solve_done - clean.assembly_done;
  const auto faulted = run_pipeline(model, true, solve_window);

  // The faults really happened...
  EXPECT_EQ(faulted.stats.clusters_lost, 1u);
  EXPECT_GT(faulted.stats.retransmissions, 0u);
  EXPECT_GT(faulted.stats.tasks_relocated, 0u);
  EXPECT_GT(faulted.stats.tasks_relocated + faulted.stats.trees_restarted,
            0u);
  EXPECT_GT(faulted.solve_done, clean.solve_done);  // recovery costs time

  // ...and the numbers are still bit-for-bit those of the clean run.
  ASSERT_EQ(faulted.displacements.size(), clean.displacements.size());
  for (std::size_t i = 0; i < clean.displacements.size(); ++i)
    EXPECT_EQ(faulted.displacements[i], clean.displacements[i]) << "dof " << i;
  ASSERT_EQ(faulted.von_mises.size(), clean.von_mises.size());
  for (std::size_t i = 0; i < clean.von_mises.size(); ++i)
    EXPECT_EQ(faulted.von_mises[i], clean.von_mises[i]) << "element " << i;
}

}  // namespace
}  // namespace fem2
