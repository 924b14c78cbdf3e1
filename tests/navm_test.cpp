// Numerical analyst's VM tests: window algebra, coroutine task features,
// collectors, distributed operations, and behaviour under PE failures.
#include <gtest/gtest.h>

#include <algorithm>

#include "la/iterative.hpp"
#include "navm/parops.hpp"
#include "navm/runtime.hpp"
#include "navm/value.hpp"
#include "support/rng.hpp"

namespace fem2::navm {
namespace {

// --- window algebra (pure) ------------------------------------------------

TEST(Window, RowColBlockViews) {
  const Window w{7, 2, 3, 10, 20};
  const Window r = w.row(4);
  EXPECT_EQ(r.row0, 6u);
  EXPECT_EQ(r.rows, 1u);
  EXPECT_EQ(r.cols, 20u);
  const Window c = w.col(5);
  EXPECT_EQ(c.col0, 8u);
  EXPECT_EQ(c.cols, 1u);
  EXPECT_EQ(c.rows, 10u);
  const Window b = w.block(1, 2, 3, 4);
  EXPECT_EQ(b.row0, 3u);
  EXPECT_EQ(b.col0, 5u);
  EXPECT_EQ(b.elements(), 12u);
  EXPECT_THROW(w.block(8, 0, 5, 1), support::CheckError);
  EXPECT_THROW(w.row(10), support::CheckError);
}

TEST(Window, SplitRowsCoversExactly) {
  const Window w{1, 0, 0, 10, 4};
  for (const std::size_t k : {1u, 2u, 3u, 7u, 10u}) {
    const auto parts = w.split_rows(k);
    std::size_t covered = 0;
    std::size_t expect_row = 0;
    for (const auto& p : parts) {
      EXPECT_EQ(p.row0, expect_row);
      EXPECT_EQ(p.cols, 4u);
      expect_row = p.row0 + p.rows;
      covered += p.rows;
    }
    EXPECT_EQ(covered, 10u);
  }
  // More parts than rows: empty bands dropped.
  EXPECT_EQ(w.split_rows(20).size(), 10u);
}

TEST(Window, RangeOnVectors) {
  const Window v{3, 0, 0, 100, 1};
  const Window r = v.range(10, 25);
  EXPECT_EQ(r.row0, 10u);
  EXPECT_EQ(r.rows, 25u);
  EXPECT_THROW(v.range(90, 20), support::CheckError);
  const Window matrix{3, 0, 0, 10, 10};
  EXPECT_THROW(matrix.range(0, 5), support::CheckError);
}

class BlockBegin : public ::testing::TestWithParam<
                       std::tuple<std::size_t, std::size_t>> {};

TEST_P(BlockBegin, PartitionIsMonotoneAndExact) {
  const auto [n, k] = GetParam();
  EXPECT_EQ(block_begin(n, k, 0), 0u);
  EXPECT_EQ(block_begin(n, k, k), n);
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_LE(block_begin(n, k, i), block_begin(n, k, i + 1));
    // Blocks differ in size by at most one.
    const auto size = block_begin(n, k, i + 1) - block_begin(n, k, i);
    EXPECT_LE(size, n / k + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, BlockBegin,
    ::testing::Combine(::testing::Values(1u, 7u, 64u, 1000u),
                       ::testing::Values(1u, 3u, 8u, 16u)));

// --- runtime fixtures --------------------------------------------------------

struct Stack {
  static hw::MachineConfig make_config(std::size_t clusters = 2,
                                       std::size_t ppc = 3) {
    hw::MachineConfig c;
    c.clusters = clusters;
    c.pes_per_cluster = ppc;
    c.memory_per_cluster = 8u << 20;
    return c;
  }

  hw::Machine machine;
  sysvm::Os os;
  Runtime runtime;

  explicit Stack(hw::MachineConfig config = make_config())
      : machine(config), os(machine), runtime(os) {}
};

TEST(Runtime, TaskParamsAndReplicationIndices) {
  Stack s;
  s.runtime.define_task("child", [](TaskContext& ctx) -> Coro {
    EXPECT_EQ(ctx.replication_count(), 3u);
    co_return payload_int(as_int(ctx.params()) +
                          ctx.replication_index());
  });
  s.runtime.define_task("parent", [](TaskContext& ctx) -> Coro {
    auto results = co_await forall(ctx, "child", 3, [](std::uint32_t) {
      return payload_int(100);
    });
    std::int64_t sum = 0;
    for (const auto& r : results) sum += as_int(r);
    co_return payload_int(sum);
  });
  const auto id = s.runtime.launch("parent");
  s.runtime.run();
  EXPECT_EQ(as_int(s.runtime.result(id)), 303);
}

TEST(Runtime, PardoRunsHeterogeneousBranches) {
  Stack s;
  s.runtime.define_task("square", [](TaskContext& ctx) -> Coro {
    const auto v = as_int(ctx.params());
    co_return payload_int(v * v);
  });
  s.runtime.define_task("negate", [](TaskContext& ctx) -> Coro {
    co_return payload_int(-as_int(ctx.params()));
  });
  s.runtime.define_task("main", [](TaskContext& ctx) -> Coro {
    std::vector<PardoSpec> specs;
    specs.push_back({"square", payload_int(6)});
    specs.push_back({"negate", payload_int(10)});
    auto results = co_await pardo(ctx, std::move(specs));
    std::int64_t sum = 0;
    for (const auto& r : results) sum += as_int(r);
    co_return payload_int(sum);  // 36 - 10
  });
  const auto id = s.runtime.launch("main");
  s.runtime.run();
  EXPECT_EQ(as_int(s.runtime.result(id)), 26);
}

TEST(Runtime, EmptyPardoCompletesImmediately) {
  Stack s;
  s.runtime.define_task("main", [](TaskContext& ctx) -> Coro {
    auto results = co_await pardo(ctx, {});
    co_return payload_int(static_cast<std::int64_t>(results.size()));
  });
  const auto id = s.runtime.launch("main");
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(id));
  EXPECT_EQ(as_int(s.runtime.result(id)), 0);
}

TEST(Runtime, PayloadTypeMismatchThrowsCleanly) {
  Stack s;
  s.runtime.define_task("main", [](TaskContext& ctx) -> Coro {
    // Params hold an int; reading them as a window must throw a typed
    // error, not crash.
    EXPECT_THROW((void)ctx.params().as<Window>(), support::Error);
    co_return sysvm::Payload{};
  });
  const auto id = s.runtime.launch("main", payload_int(7));
  s.runtime.run();
  EXPECT_TRUE(s.os.task_finished(id));
}

TEST(Runtime, YieldInterleavesReadyTasks) {
  Stack s;
  s.runtime.define_task("yielder", [](TaskContext& ctx) -> Coro {
    for (int i = 0; i < 3; ++i) {
      ctx.charge(10);
      co_await ctx.yield();
    }
    co_return payload_int(1);
  });
  s.runtime.define_task("main", [](TaskContext& ctx) -> Coro {
    auto results = co_await forall(ctx, "yielder", 4, {});
    co_return payload_int(static_cast<std::int64_t>(results.size()));
  });
  const auto id = s.runtime.launch("main");
  s.runtime.run();
  EXPECT_EQ(as_int(s.runtime.result(id)), 4);
}

TEST(Runtime, WindowWriteRemoteAndReadBack) {
  Stack s{Stack::make_config(3, 2)};
  s.runtime.define_task("writer", [](TaskContext& ctx) -> Coro {
    const auto& win = ctx.params().as<Window>();
    std::vector<double> data{9.0, 8.0, 7.0};
    co_await ctx.write(win, std::move(data));
    co_return sysvm::Payload{};
  });
  s.runtime.define_task("owner", [](TaskContext& ctx) -> Coro {
    const auto win = ctx.create_vector({1, 2, 3, 4, 5});
    (void)co_await forall(ctx, "writer", 1, [&](std::uint32_t) {
      return sysvm::Payload::of(win.range(1, 3), Window::kDescriptorBytes);
    });
    const auto data = co_await ctx.read(win);
    co_return payload_reals(data);
  });
  const auto id = s.runtime.launch("owner");
  s.runtime.run();
  const auto& data = as_reals(s.runtime.result(id));
  EXPECT_EQ(data, (std::vector<double>{1, 9, 8, 7, 5}));
}

TEST(Runtime, CallAtRoutesToWindowLocation) {
  // "Remote procedure call - location determined by location of data
  // visible in a window."
  Stack s{Stack::make_config(4, 2)};
  std::vector<std::uint32_t> executed_on;
  s.os.register_procedure(sysvm::Procedure{
      "where", 64,
      [&](sysvm::ProcedureContext& ctx, const sysvm::Payload&) {
        executed_on.push_back(ctx.cluster.index);
        return payload_int(ctx.cluster.index);
      }});
  s.runtime.define_task("owner", [](TaskContext& ctx) -> Coro {
    const auto w = ctx.create_vector({1.0});
    const auto reply = co_await ctx.call_at(w, "where", sysvm::Payload{});
    // The call ran where the window's data lives: our own cluster.
    EXPECT_EQ(as_int(reply),
              static_cast<std::int64_t>(ctx.cluster().index));
    co_return sysvm::Payload{};
  });
  const auto id = s.runtime.launch("owner");
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(id));
  ASSERT_EQ(executed_on.size(), 1u);
}

TEST(Runtime, ArrayDiesWithOwnerTask) {
  Stack s;
  Window leaked;
  s.runtime.define_task("owner", [&](TaskContext& ctx) -> Coro {
    leaked = ctx.create_vector({1, 2, 3});
    co_return sysvm::Payload{};
  });
  const auto id = s.runtime.launch("owner");
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(id));
  // "Data lifetime - lifetime of owner task": the window is now dangling.
  EXPECT_THROW(s.runtime.gather(leaked), support::CheckError);
}

TEST(Runtime, CollectorGathersDeposits) {
  Stack s{Stack::make_config(3, 3)};
  struct DepositorParams {
    hw::ClusterId home;
    std::uint64_t collector;
  };
  s.runtime.define_task("depositor", [](TaskContext& ctx) -> Coro {
    const auto& p = ctx.params().as<DepositorParams>();
    (void)co_await ctx.deposit(
        p.home, p.collector,
        payload_int(static_cast<std::int64_t>(ctx.replication_index())));
    co_return sysvm::Payload{};
  });
  s.runtime.define_task("main", [](TaskContext& ctx) -> Coro {
    const auto collector = ctx.make_collector(5);
    ctx.initiate("depositor", 5, [&](std::uint32_t) {
      return sysvm::Payload::of(DepositorParams{ctx.cluster(), collector},
                                16);
    });
    auto deposits = co_await ctx.collect(collector);
    std::int64_t sum = 0;
    for (const auto& d : deposits) sum += as_int(d);
    (void)co_await ctx.join(5);
    co_return payload_int(sum);
  });
  const auto id = s.runtime.launch("main");
  s.runtime.run();
  EXPECT_EQ(as_int(s.runtime.result(id)), 0 + 1 + 2 + 3 + 4);
}

TEST(Runtime, CollectorReusableAcrossPhases) {
  Stack s;
  struct Params {
    hw::ClusterId home;
    std::uint64_t collector;
  };
  s.runtime.define_task("worker", [](TaskContext& ctx) -> Coro {
    const auto& p = ctx.params().as<Params>();
    for (int round = 0; round < 3; ++round) {
      (void)co_await ctx.deposit(p.home, p.collector,
                                 payload_int(round));
      (void)co_await ctx.pause();
    }
    co_return sysvm::Payload{};
  });
  s.runtime.define_task("driver", [](TaskContext& ctx) -> Coro {
    const auto collector = ctx.make_collector(2);
    const auto children = ctx.initiate("worker", 2, [&](std::uint32_t) {
      return sysvm::Payload::of(Params{ctx.cluster(), collector}, 16);
    });
    std::int64_t total = 0;
    for (int round = 0; round < 3; ++round) {
      auto deposits = co_await ctx.collect(collector);
      EXPECT_EQ(deposits.size(), 2u);
      for (const auto& d : deposits) total += as_int(d);
      ctx.broadcast(children, sysvm::Payload{});
    }
    (void)co_await ctx.join(2);
    co_return payload_int(total);  // 2*(0+1+2)
  });
  const auto id = s.runtime.launch("driver");
  s.runtime.run();
  EXPECT_EQ(as_int(s.runtime.result(id)), 6);
}

TEST(Runtime, CollectorAcceptsEachDepositorTokenOnce) {
  Stack s{Stack::make_config(3, 3)};
  struct Params {
    hw::ClusterId home;
    std::uint64_t collector;
  };
  constexpr std::uint64_t kBig = (std::uint64_t{1} << 63) + 1;
  struct Deposit {
    double value;
    std::uint64_t token;
  };
  // Per depositor and round: every deposit it makes, duplicates included.
  // A pair is accepted once across the collector's auto-resets, token 0 is
  // never deduplicated, and the same token from another depositor counts.
  static const std::vector<std::vector<std::vector<Deposit>>> kPlan{
      {{{1, 1}, {99, 1}, {2, 0}}, {{3, 1}}},
      {{{98, 1}, {20, kBig}, {97, kBig}, {40, 0}}, {{50, kBig}}},
      {{{60, 0}, {96, kBig}, {80, 2}}, {{90, 0}}},
  };
  s.runtime.define_task("depositor", [](TaskContext& ctx) -> Coro {
    const auto& p = ctx.params().as<Params>();
    const std::uint32_t me = ctx.replication_index();
    for (const auto& round : kPlan) {
      for (const Deposit& d : round[me]) {
        (void)co_await ctx.deposit(p.home, p.collector,
                                   payload_real(d.value), d.token);
      }
      (void)co_await ctx.pause();
    }
    co_return sysvm::Payload{};
  });
  s.runtime.define_task("driver", [](TaskContext& ctx) -> Coro {
    const auto collector = ctx.make_collector(3);
    const auto children = ctx.initiate("depositor", 2, [&](std::uint32_t) {
      return sysvm::Payload::of(Params{ctx.cluster(), collector}, 16);
    });
    std::vector<double> accepted;
    for (std::size_t round = 0; round < kPlan.size(); ++round) {
      const auto deposits = co_await ctx.collect(collector);
      std::vector<double> values;
      for (const auto& d : deposits) values.push_back(as_real(d));
      std::sort(values.begin(), values.end());
      accepted.insert(accepted.end(), values.begin(), values.end());
      // Both depositors have paused once the round's last duplicate is
      // answered; only then may the next round start.
      (void)co_await ctx.child_pauses(2);
      ctx.broadcast(children, sysvm::Payload{});
    }
    (void)co_await ctx.join(2);
    co_return payload_reals(std::move(accepted));
  });

  struct DepositCounter : RuntimeObserver {
    std::size_t accepted = 0;
    void on_deposit(std::uint64_t, sysvm::TaskId) override { ++accepted; }
  } counter;
  s.runtime.set_observer(&counter);
  const auto id = s.runtime.launch("driver");
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(id));
  EXPECT_EQ(as_reals(s.runtime.result(id)),
            (std::vector<double>{1, 2, 3, 20, 40, 50, 60, 80, 90}));
  EXPECT_EQ(counter.accepted, 9u);
}

// --- distributed operations vs sequential reference -------------------------

TEST(ParOps, DistributedDotMatchesSequential) {
  Stack s{Stack::make_config(4, 4)};
  register_parallel_ops(s.runtime);
  const std::size_t n = 1000;
  std::vector<double> a(n), b(n);
  support::Rng rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = rng.uniform(-1, 1);
    b[i] = rng.uniform(-1, 1);
  }
  const double expected = la::dot(a, b);

  s.runtime.define_task("main", [&](TaskContext& ctx) -> Coro {
    const auto wa = ctx.create_vector(a);
    const auto wb = ctx.create_vector(b);
    const auto pa = wa.split_rows(4);
    const auto pb = wb.split_rows(4);
    auto results = co_await forall(ctx, kDotTask, 4, [&](std::uint32_t i) {
      return make_dot_params({pa[i], pb[i]});
    });
    double total = 0;
    for (const auto& r : results) total += as_real(r);
    co_return payload_real(total);
  });
  const auto id = s.runtime.launch("main");
  s.runtime.run();
  EXPECT_NEAR(as_real(s.runtime.result(id)), expected, 1e-10);
}

TEST(ParOps, DistributedAxpyMatchesSequential) {
  Stack s{Stack::make_config(4, 4)};
  register_parallel_ops(s.runtime);
  const std::size_t n = 500;
  std::vector<double> x(n), y(n), expected;
  support::Rng rng(9);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1, 1);
    y[i] = rng.uniform(-1, 1);
  }
  expected = y;
  la::axpy(1.5, x, expected);

  s.runtime.define_task("main", [&](TaskContext& ctx) -> Coro {
    const auto wx = ctx.create_vector(x);
    const auto wy = ctx.create_vector(y);
    const auto px = wx.split_rows(3);
    const auto py = wy.split_rows(3);
    (void)co_await forall(ctx, kAxpyTask, 3, [&](std::uint32_t i) {
      return make_axpy_params({1.5, px[i], py[i]});
    });
    co_return payload_reals(co_await ctx.read(wy));
  });
  const auto id = s.runtime.launch("main");
  s.runtime.run();
  const auto& result = as_reals(s.runtime.result(id));
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(result[i], expected[i], 1e-12);
}

la::CsrMatrix laplacian_2d(std::size_t nx, std::size_t ny) {
  const std::size_t n = nx * ny;
  la::TripletBuilder b(n, n);
  for (std::size_t j = 0; j < ny; ++j) {
    for (std::size_t i = 0; i < nx; ++i) {
      const std::size_t p = j * nx + i;
      b.add(p, p, 4.0);
      if (i > 0) b.add(p, p - 1, -1.0);
      if (i + 1 < nx) b.add(p, p + 1, -1.0);
      if (j > 0) b.add(p, p - nx, -1.0);
      if (j + 1 < ny) b.add(p, p + nx, -1.0);
    }
  }
  return b.build();
}

class DistributedCg
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::size_t>> {
};

TEST_P(DistributedCg, MatchesSequentialAcrossWorkersAndClusters) {
  const auto [workers, clusters] = GetParam();
  Stack s{Stack::make_config(clusters, 4)};
  register_parallel_ops(s.runtime);

  CgProblem problem;
  problem.a = laplacian_2d(12, 9);
  problem.b.resize(108);
  support::Rng rng(workers * 100 + clusters);
  for (auto& v : problem.b) v = rng.uniform(-1, 1);
  problem.workers = workers;
  problem.tolerance = 1e-11;

  const auto reference = la::conjugate_gradient(problem.a, problem.b,
                                                {.tolerance = 1e-11});
  ASSERT_TRUE(reference.report.converged);

  const auto task = s.runtime.launch(kCgDriverTask,
                                     make_cg_problem(problem));
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(task));
  const auto& result = as_cg_result(s.runtime.result(task));
  EXPECT_TRUE(result.converged);
  for (std::size_t i = 0; i < problem.b.size(); ++i)
    EXPECT_NEAR(result.x[i], reference.x[i], 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    WorkersByClusters, DistributedCg,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 7u, 8u),
                       ::testing::Values(1u, 2u, 4u)));

TEST(ParOps, CgSurvivesMidRunPeFailure) {
  Stack s{Stack::make_config(4, 4)};
  register_parallel_ops(s.runtime);
  CgProblem problem;
  problem.a = laplacian_2d(10, 10);
  problem.b.assign(100, 1.0);
  problem.workers = 8;
  problem.tolerance = 1e-10;
  const auto reference = la::conjugate_gradient(problem.a, problem.b);

  const auto task = s.runtime.launch(kCgDriverTask, make_cg_problem(problem));
  s.machine.engine().schedule(300'000, [&] {
    s.machine.fail_pe(hw::PeId{hw::ClusterId{2}, 1});
    s.machine.fail_pe(hw::PeId{hw::ClusterId{3}, 0});  // a kernel PE
  });
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(task));
  const auto& result = as_cg_result(s.runtime.result(task));
  EXPECT_TRUE(result.converged);
  for (std::size_t i = 0; i < 100; ++i)
    EXPECT_NEAR(result.x[i], reference.x[i], 1e-6);
}

TEST(Window, SplitRowsOfSplitColsTilesExactly) {
  // Property: composing split_rows and split_cols tiles the window with no
  // gaps or overlaps.
  const Window w{5, 3, 2, 24, 18};
  std::vector<std::vector<bool>> covered(
      w.rows, std::vector<bool>(w.cols, false));
  for (const auto& band : w.split_rows(5)) {
    for (const auto& block : band.split_cols(4)) {
      for (std::size_t r = 0; r < block.rows; ++r) {
        for (std::size_t c = 0; c < block.cols; ++c) {
          const std::size_t gr = block.row0 - w.row0 + r;
          const std::size_t gc = block.col0 - w.col0 + c;
          ASSERT_FALSE(covered[gr][gc]) << "overlap at " << gr << "," << gc;
          covered[gr][gc] = true;
        }
      }
    }
  }
  for (const auto& row : covered)
    for (const bool cell : row) EXPECT_TRUE(cell);
}

TEST(ParOps, CgDeterministicUnderIdenticalFaultSchedule) {
  // The simulator must be bit-deterministic even with mid-run failures.
  auto run_once = [] {
    Stack s{Stack::make_config(4, 4)};
    register_parallel_ops(s.runtime);
    CgProblem problem;
    problem.a = laplacian_2d(8, 8);
    problem.b.assign(64, 1.0);
    problem.workers = 6;
    const auto task = s.runtime.launch(kCgDriverTask,
                                       make_cg_problem(std::move(problem)));
    s.machine.engine().schedule(150'000, [&s] {
      s.machine.fail_pe(hw::PeId{hw::ClusterId{1}, 2});
    });
    s.runtime.run();
    EXPECT_TRUE(s.os.task_finished(task));
    return std::tuple{s.machine.now(), s.os.stats().total_messages(),
                      s.os.stats().steps_redone,
                      as_cg_result(s.runtime.result(task)).x};
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(std::get<0>(a), std::get<0>(b));
  EXPECT_EQ(std::get<1>(a), std::get<1>(b));
  EXPECT_EQ(std::get<2>(a), std::get<2>(b));
  EXPECT_EQ(std::get<3>(a), std::get<3>(b));
}

TEST(ParOps, CgHandlesZeroRhs) {
  Stack s;
  register_parallel_ops(s.runtime);
  CgProblem problem;
  problem.a = laplacian_2d(4, 4);
  problem.b.assign(16, 0.0);
  problem.workers = 3;
  const auto task = s.runtime.launch(kCgDriverTask, make_cg_problem(problem));
  s.runtime.run();
  const auto& result = as_cg_result(s.runtime.result(task));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  for (const double v : result.x) EXPECT_EQ(v, 0.0);
}

}  // namespace
}  // namespace fem2::navm
