// Topology suite: window derivation, per-topology latency math, the
// contention-channel mapping, severed-variant parity with the FaultPlan
// machinery, and bitwise determinism of every topology across repeated
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "analyze/analyzer.hpp"
#include "fem/mesh.hpp"
#include "fem/solver.hpp"
#include "hw/fault.hpp"
#include "hw/machine.hpp"
#include "hw/topology.hpp"
#include "hw/trace.hpp"
#include "navm/parops.hpp"
#include "navm/runtime.hpp"
#include "run_digest.hpp"
#include "support/check.hpp"
#include "sysvm/os.hpp"

namespace fem2::hw {
namespace {

MachineConfig four_clusters() {
  MachineConfig config;
  config.clusters = 4;
  config.pes_per_cluster = 2;
  return config;
}

// --- window derivation ------------------------------------------------------

TEST(Topology, WindowEqualsMinLaunchDelayForEveryKind) {
  for (const auto& kind : topology_kinds()) {
    auto config = four_clusters();
    config.topology = make_topology(kind, config);
    Machine machine(config);
    EXPECT_EQ(machine.engine().window(),
              config.topology->min_launch_delay())
        << "topology=" << kind;
    EXPECT_EQ(machine.topology().name(), config.topology->name());
  }
}

TEST(Topology, NullTopologySelectsFlatSeedModel) {
  const auto config = four_clusters();
  Machine machine(config);  // config.topology left null
  EXPECT_EQ(machine.topology().name(), "flat");
  EXPECT_EQ(machine.engine().window(), config.network_base_latency);
  EXPECT_EQ(machine.topology().launch_delay(ClusterId{0}, ClusterId{1}, 0),
            config.network_base_latency);
  EXPECT_EQ(machine.topology().cycles_per_byte(ClusterId{0}, ClusterId{1}),
            config.network_cycles_per_byte);
}

TEST(Topology, ClusterCountMismatchIsRejected) {
  auto config = four_clusters();
  config.topology = std::make_shared<FlatTopology>(8, 100, 0.5);
  EXPECT_THROW(Machine{config}, support::CheckError);
}

TEST(Topology, UnknownKindIsRejected) {
  EXPECT_THROW(make_topology("torus", four_clusters()),
               support::CheckError);
}

// --- fat tree ---------------------------------------------------------------

TEST(Topology, FatTreeEdgeVsSpinePaths) {
  FatTreeTopology::Options opt;
  opt.pod_size = 2;
  opt.edge_latency = 100;
  opt.spine_latency = 240;
  opt.edge_cycles_per_byte = 0.5;
  opt.spine_cycles_per_byte = 1.0;
  const FatTreeTopology tree(4, opt);  // pods {0,1} and {2,3}

  EXPECT_EQ(tree.pods(), 2u);
  EXPECT_EQ(tree.min_launch_delay(), 100u);
  EXPECT_EQ(tree.max_launch_delay(), 240u);
  // Intra-pod: edge path, destination inbound channel.
  EXPECT_EQ(tree.launch_delay(ClusterId{0}, ClusterId{1}, 0), 100u);
  EXPECT_EQ(tree.cycles_per_byte(ClusterId{0}, ClusterId{1}), 0.5);
  EXPECT_EQ(tree.channel(ClusterId{0}, ClusterId{1}), 1u);
  // Inter-pod: spine path, source pod's uplink channel.
  EXPECT_EQ(tree.launch_delay(ClusterId{0}, ClusterId{3}, 0), 240u);
  EXPECT_EQ(tree.cycles_per_byte(ClusterId{0}, ClusterId{3}), 1.0);
  EXPECT_EQ(tree.channel(ClusterId{0}, ClusterId{3}), 4u);  // clusters + pod 0
  EXPECT_EQ(tree.channel(ClusterId{3}, ClusterId{0}), 5u);  // clusters + pod 1
  EXPECT_EQ(tree.channel_count(), 6u);
}

// --- rotor ------------------------------------------------------------------

TEST(Topology, RotorSlotWaitIsDeterministicInSendTime) {
  RotorTopology::Options opt;
  opt.base_latency = 100;
  opt.slot_cycles = 400;
  const RotorTopology rotor(4, opt);  // 3 matchings, revolution = 1200

  EXPECT_EQ(rotor.slots(), 3u);
  EXPECT_EQ(rotor.min_launch_delay(), 100u);
  // Matching 0 wires 0 -> 1 and is active on [0, 400).
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{1}, 0), 100u);
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{1}, 399), 100u);
  // Just after the slot: wait a whole revolution minus the phase.
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{1}, 400),
            100u + 800u);
  // Matching 1 wires 0 -> 2 on [400, 800): before it opens, wait the gap.
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{2}, 0), 100u + 400u);
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{2}, 400), 100u);
  // Phase wraps with the revolution.
  EXPECT_EQ(rotor.launch_delay(ClusterId{0}, ClusterId{1}, 1200), 100u);
  // Worst case bound holds.
  EXPECT_EQ(rotor.max_launch_delay(), 100u + 400u * 2 + 399u);
  for (const Cycles at : {0u, 123u, 400u, 799u, 1199u, 1200u, 5000u}) {
    for (std::uint32_t dst = 1; dst < 4; ++dst) {
      const auto d = rotor.launch_delay(ClusterId{0}, ClusterId{dst}, at);
      EXPECT_GE(d, rotor.min_launch_delay());
      EXPECT_LE(d, rotor.max_launch_delay());
    }
  }
  // Packets serialize on the source's optical port.
  EXPECT_EQ(rotor.channel(ClusterId{2}, ClusterId{0}), 2u);

  // A 2-cluster rotor is always wired.
  const RotorTopology pair(2, opt);
  EXPECT_EQ(pair.launch_delay(ClusterId{0}, ClusterId{1}, 777), 100u);
  EXPECT_EQ(pair.max_launch_delay(), 100u);
}

// --- degraded variants ------------------------------------------------------

TEST(Topology, BrownoutsScaleLatencyAndBandwidthOnly) {
  auto base = std::make_shared<FlatTopology>(4, 100, 0.5);
  const DegradedTopology degraded(
      base, {{ClusterId{0}, ClusterId{1}, 4, 4.0}});
  EXPECT_EQ(degraded.launch_delay(ClusterId{0}, ClusterId{1}, 0), 400u);
  EXPECT_EQ(degraded.cycles_per_byte(ClusterId{0}, ClusterId{1}), 2.0);
  // Untouched links and the window bound are the base topology's.
  EXPECT_EQ(degraded.launch_delay(ClusterId{1}, ClusterId{0}, 0), 100u);
  EXPECT_EQ(degraded.min_launch_delay(), 100u);
  EXPECT_EQ(degraded.max_launch_delay(), 400u);
  // A brownout that would speed a link up is rejected (window safety).
  EXPECT_THROW(DegradedTopology(base, {{ClusterId{0}, ClusterId{1}, 0, 0.5}}),
               support::CheckError);
}

// A topology with statically severed links must behave exactly like the
// same machine with the equivalent FaultPlan applied at t=0: identical
// metrics dump (deliveries, drops, traffic matrix, latency histogram).
TEST(Topology, SeveredVariantMatchesEquivalentFaultPlan) {
  const std::vector<std::pair<ClusterId, ClusterId>> severed = {
      {ClusterId{0}, ClusterId{1}}, {ClusterId{2}, ClusterId{3}}};
  const auto traffic = [](Machine& machine) {
    for (std::uint32_t s = 0; s < 4; ++s) {
      for (std::uint32_t d = 0; d < 4; ++d) {
        if (s == d) continue;
        machine.send_packet(ClusterId{s}, ClusterId{d}, 64, {});
        machine.send_packet(ClusterId{s}, ClusterId{d}, 256, {});
      }
    }
    machine.engine().run();
  };

  auto severed_config = four_clusters();
  const auto degraded = std::make_shared<DegradedTopology>(
      std::make_shared<FlatTopology>(severed_config),
      std::vector<DegradedTopology::Brownout>{}, severed);
  severed_config.topology = degraded;
  Machine severed_machine(severed_config);
  traffic(severed_machine);

  Machine plan_machine(four_clusters());
  const FaultPlan plan = degraded->equivalent_fault_plan();
  FaultInjector injector(plan_machine, plan);
  injector.arm();
  // Drain the t=0 fail-link events before offering traffic, so the plan's
  // severing is in force from the first send — the construction-time state
  // the severed topology starts in.
  plan_machine.engine().run();
  traffic(plan_machine);

  EXPECT_GT(severed_machine.metrics().network.dropped_messages, 0u);
  EXPECT_EQ(severed_machine.metrics().dump(), plan_machine.metrics().dump());
}

// --- latency histogram ------------------------------------------------------

TEST(LatencyHistogram, ExactBelowSixteenThenBounded) {
  LatencyHistogram h;
  for (Cycles v = 1; v < 16; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_upper(v), v);
  }
  for (const Cycles v : {16u, 100u, 1000u, 123456u}) {
    const auto index = LatencyHistogram::bucket_index(v);
    EXPECT_GE(LatencyHistogram::bucket_upper(index), v);
    // Relative bucket width stays within one sub-bucket (~6%).
    EXPECT_LE(static_cast<double>(LatencyHistogram::bucket_upper(index)),
              static_cast<double>(v) * (1.0 + 1.0 / 16.0) + 1.0);
  }
  h.record(10);
  h.record(20);
  h.record(300);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.min, 10u);
  EXPECT_EQ(h.max, 300u);
  EXPECT_DOUBLE_EQ(h.mean(), 110.0);
  EXPECT_EQ(h.quantile(0.0), 10u);
  EXPECT_GE(h.quantile(0.5), 20u);
  EXPECT_EQ(h.quantile(1.0), 300u);
}

TEST(LatencyHistogram, MachineRecordsDeliveries) {
  Machine machine(four_clusters());
  machine.send_packet(ClusterId{0}, ClusterId{1}, 64, {});
  machine.send_packet(ClusterId{1}, ClusterId{2}, 64, {});
  machine.send_packet(ClusterId{2}, ClusterId{2}, 64, {});  // local: no sample
  machine.engine().run();
  const auto& latency = machine.metrics().network.latency;
  EXPECT_EQ(latency.count, 2u);
  EXPECT_GE(latency.min, machine.engine().window());
}

// --- determinism ------------------------------------------------------------

// Bitwise determinism for every topology: the same distributed solve run
// twice must produce byte-identical machine metrics dumps (which include
// the latency histogram) and OS stats dumps, bit-identical displacements,
// the same analyzer findings and the same tracer event list.  The first
// run must also match recorded cycles, events, phases and output digest.
TEST(TopologyDeterminism, RepeatRunBitwiseIdenticalForEveryKind) {
  struct Recorded {
    Cycles elapsed;
    std::uint64_t events;
    std::uint64_t phases;
    std::uint64_t digest;
  };
  const std::map<std::string, Recorded> recorded = {
      {"flat", {1'669'206, 25'365, 7'543, 0x17eafb91e18cf4aeull}},
      {"fattree", {1'790'068, 25'365, 10'579, 0xb1d9db2beb2c86f8ull}},
      {"rotor", {1'955'242, 25'365, 10'194, 0x12256d9533bef048ull}},
      {"degraded", {1'982'395, 25'365, 8'643, 0x9ec6da5bcc56b50full}},
  };
  fem::PlateMeshOptions mesh;
  mesh.nx = 12;
  mesh.ny = 6;
  mesh.width = 1.5;
  mesh.height = 0.75;
  const auto model = fem::make_cantilever_plate(mesh, 1'000.0);

  for (const auto& kind : topology_kinds()) {
    auto config = four_clusters();
    config.topology = make_topology(kind, config);

    struct Outcome {
      Cycles elapsed = 0;
      std::uint64_t events = 0;
      std::uint64_t phases = 0;
      std::uint64_t digest = 0;
      std::string machine_dump;
      std::string os_dump;
      std::vector<double> displacements;
      std::vector<std::string> findings;
      std::vector<TraceEvent> trace;
    };
    const auto run = [&] {
      Machine machine(config);
      Tracer tracer;
      machine.set_tracer(&tracer);
      sysvm::Os os(machine);
      navm::Runtime runtime(os);
      navm::register_parallel_ops(runtime);
      analyze::Analyzer analyzer(runtime);
      std::uint64_t phases = 0;
      machine.engine().add_barrier_hook([&phases] { ++phases; });
      const auto solution = fem::solve_static_parallel(
          model, "tip-shear", runtime, {.workers = 8, .tolerance = 1e-8});
      analyzer.check_now();
      EXPECT_EQ(tracer.dropped(), 0u) << "topology=" << kind;
      Outcome outcome;
      outcome.elapsed = machine.now();
      outcome.events = machine.engine().processed();
      outcome.phases = phases;
      outcome.machine_dump = machine.metrics().dump();
      outcome.os_dump = os.stats().dump();
      outcome.displacements = solution.displacements.values;
      for (const auto& finding : analyzer.findings())
        outcome.findings.push_back(finding.rule + "|" + finding.entity +
                                   "|" + finding.message);
      outcome.trace = tracer.events();
      outcome.digest = test_support::run_digest(
          outcome.machine_dump, outcome.os_dump, outcome.trace);
      return outcome;
    };

    const auto first = run();
    ASSERT_GT(first.elapsed, 0u) << "topology=" << kind;
    const Recorded& pinned = recorded.at(kind);
    EXPECT_EQ(first.elapsed, pinned.elapsed) << "topology=" << kind;
    EXPECT_EQ(first.events, pinned.events) << "topology=" << kind;
    EXPECT_EQ(first.phases, pinned.phases) << "topology=" << kind;
    EXPECT_EQ(first.digest, pinned.digest) << "topology=" << kind;
    const auto second = run();
    EXPECT_EQ(second.elapsed, first.elapsed) << "topology=" << kind;
    EXPECT_EQ(second.machine_dump, first.machine_dump)
        << "topology=" << kind;
    EXPECT_EQ(second.os_dump, first.os_dump) << "topology=" << kind;
    EXPECT_EQ(second.displacements, first.displacements)
        << "topology=" << kind;
    EXPECT_EQ(second.findings, first.findings) << "topology=" << kind;
    ASSERT_GT(first.trace.size(), 0u) << "topology=" << kind;
    ASSERT_EQ(second.trace.size(), first.trace.size())
        << "topology=" << kind;
    const auto diverged = std::mismatch(
        first.trace.begin(), first.trace.end(), second.trace.begin());
    EXPECT_TRUE(diverged.first == first.trace.end())
        << "topology=" << kind << ": tracer event lists diverge at event "
        << (diverged.first - first.trace.begin());
  }
}

}  // namespace
}  // namespace fem2::hw
