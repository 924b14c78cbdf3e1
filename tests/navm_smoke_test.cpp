// End-to-end smoke tests of the virtual-machine stack: coroutine tasks on
// the OS kernel on the simulated cluster machine.
#include <gtest/gtest.h>

#include "la/iterative.hpp"
#include "navm/parops.hpp"
#include "navm/runtime.hpp"
#include "navm/task.hpp"
#include "navm/value.hpp"

namespace fem2 {
namespace {

struct Stack {
  hw::Machine machine;
  sysvm::Os os;
  navm::Runtime runtime;

  explicit Stack(hw::MachineConfig config = {},
                 sysvm::OsOptions options = {})
      : machine(config), os(machine, options), runtime(os) {}
};

TEST(NavmSmoke, RootTaskRunsAndReturns) {
  Stack s;
  s.runtime.define_task("root", [](navm::TaskContext& ctx) -> navm::Coro {
    ctx.charge(100);
    co_return navm::payload_int(42);
  });
  const auto id = s.runtime.launch("root");
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(id));
  EXPECT_EQ(navm::as_int(s.runtime.result(id)), 42);
  EXPECT_GT(s.os.now(), 0u);
}

TEST(NavmSmoke, InitiateAndJoinChildren) {
  Stack s;
  s.runtime.define_task("child", [](navm::TaskContext& ctx) -> navm::Coro {
    ctx.charge(10);
    co_return navm::payload_int(
        static_cast<std::int64_t>(ctx.replication_index()));
  });
  s.runtime.define_task("parent", [](navm::TaskContext& ctx) -> navm::Coro {
    const auto results = co_await navm::forall(
        ctx, "child", 8, [](std::uint32_t i) {
          return navm::payload_int(static_cast<std::int64_t>(i));
        });
    std::int64_t sum = 0;
    for (const auto& r : results) sum += navm::as_int(r);
    co_return navm::payload_int(sum);
  });
  const auto id = s.runtime.launch("parent");
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(id));
  EXPECT_EQ(navm::as_int(s.runtime.result(id)), 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  EXPECT_EQ(s.os.stats().tasks_finished, 9u);
}

TEST(NavmSmoke, PauseResumeBroadcast) {
  Stack s;
  s.runtime.define_task("child", [](navm::TaskContext& ctx) -> navm::Coro {
    const sysvm::Payload datum = co_await ctx.pause();
    co_return navm::payload_int(navm::as_int(datum) * 2);
  });
  s.runtime.define_task("parent", [](navm::TaskContext& ctx) -> navm::Coro {
    const auto children = ctx.initiate("child", 4);
    (void)co_await ctx.child_pauses(4);
    ctx.broadcast(children, navm::payload_int(21));
    const auto results = co_await ctx.join(4);
    std::int64_t sum = 0;
    for (const auto& r : results) sum += navm::as_int(r);
    co_return navm::payload_int(sum);
  });
  const auto id = s.runtime.launch("parent");
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(id));
  EXPECT_EQ(navm::as_int(s.runtime.result(id)), 4 * 42);
}

TEST(NavmSmoke, WindowReadWriteAcrossClusters) {
  hw::MachineConfig config;
  config.clusters = 4;
  config.pes_per_cluster = 2;
  sysvm::OsOptions options;
  options.placement = sysvm::Placement::RoundRobin;
  Stack s(config, options);

  s.runtime.define_task("reader", [](navm::TaskContext& ctx) -> navm::Coro {
    const auto& win = ctx.params().as<navm::Window>();
    const std::vector<double> data = co_await ctx.read(win);
    double sum = 0.0;
    for (const double v : data) sum += v;
    co_return navm::payload_real(sum);
  });
  s.runtime.define_task("owner", [](navm::TaskContext& ctx) -> navm::Coro {
    const navm::Window win =
        ctx.create_vector({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0});
    // Give readers a window onto the middle of the vector.
    const navm::Window middle = win.range(2, 4);  // 3+4+5+6 = 18
    const auto results =
        co_await navm::forall(ctx, "reader", 3, [&](std::uint32_t) {
          return sysvm::Payload::of(middle, navm::Window::kDescriptorBytes);
        });
    double total = 0.0;
    for (const auto& r : results) total += navm::as_real(r);
    co_return navm::payload_real(total);
  });
  const auto id = s.runtime.launch("owner");
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(id));
  EXPECT_DOUBLE_EQ(navm::as_real(s.runtime.result(id)), 3 * 18.0);
}

la::CsrMatrix laplacian_1d(std::size_t n) {
  la::TripletBuilder builder(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    builder.add(i, i, 2.0);
    if (i > 0) builder.add(i, i - 1, -1.0);
    if (i + 1 < n) builder.add(i, i + 1, -1.0);
  }
  return builder.build();
}

TEST(NavmSmoke, DistributedConjugateGradient) {
  hw::MachineConfig config;
  config.clusters = 4;
  config.pes_per_cluster = 4;
  Stack s(config);
  navm::register_parallel_ops(s.runtime);

  const std::size_t n = 64;
  navm::CgProblem problem;
  problem.a = laplacian_1d(n);
  problem.b.assign(n, 1.0);
  problem.workers = 4;
  problem.tolerance = 1e-10;

  s.runtime.define_task("main", [&](navm::TaskContext& ctx) -> navm::Coro {
    ctx.initiate(navm::kCgDriverTask, 1, [&](std::uint32_t) {
      return navm::make_cg_problem(problem);
    });
    auto results = co_await ctx.join(1);
    co_return std::move(results.at(0));
  });
  const auto id = s.runtime.launch("main");
  s.runtime.run();
  ASSERT_TRUE(s.os.task_finished(id));

  const auto& result = navm::as_cg_result(s.runtime.result(id));
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.residual, 1e-10);

  // Check against the sequential solver.
  const auto reference = la::conjugate_gradient(problem.a, problem.b);
  ASSERT_TRUE(reference.report.converged);
  for (std::size_t i = 0; i < n; ++i)
    EXPECT_NEAR(result.x[i], reference.x[i], 1e-6) << "at index " << i;

  // The solve must actually have exercised the machine: messages of several
  // types, multiple clusters.
  const auto& metrics = s.os.stats();
  EXPECT_GT(metrics.messages_sent[static_cast<std::size_t>(
                sysvm::MessageType::RemoteCall)], 0u);
  EXPECT_GT(metrics.messages_sent[static_cast<std::size_t>(
                sysvm::MessageType::ResumeChild)], 0u);
  EXPECT_GT(s.machine.metrics().network.messages, 0u);
}

}  // namespace
}  // namespace fem2
