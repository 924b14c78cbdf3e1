// E8 — "fast linear algebra operations (to extract the low-level
// parallelism available in these operations)" (Hardware architecture);
// NAVM operations "inner product, vector operations, etc."
//
// Distributed inner product, axpy and matvec over windows, swept over
// worker counts, plus a reduction ablation: join-based (terminate-notify
// carries the partial) vs collector-based (remote-call deposits).
#include "bench_common.hpp"

#include "fem/assembly.hpp"
#include "support/strings.hpp"

using namespace fem2;

namespace {

constexpr std::size_t kN = 16'384;

struct DotDriverParams {
  std::uint32_t workers = 4;
  bool use_collector = false;
};

struct DepositDotArgs {
  navm::Window a, b;
  hw::ClusterId home;
  std::uint64_t collector = 0;
};

void register_drivers(navm::Runtime& runtime) {
  // Inner product of two task-owned vectors, split into K window pairs.
  runtime.define_task(
      "bench.dot.driver", [](navm::TaskContext& ctx) -> navm::Coro {
        const auto& p = ctx.params().as<DotDriverParams>();
        std::vector<double> a(kN), b(kN);
        for (std::size_t i = 0; i < kN; ++i) {
          a[i] = static_cast<double>(i % 97) / 97.0;
          b[i] = static_cast<double>(i % 89) / 89.0;
        }
        const auto wa = ctx.create_vector(std::move(a));
        const auto wb = ctx.create_vector(std::move(b));
        const auto a_parts = wa.split_rows(p.workers);
        const auto b_parts = wb.split_rows(p.workers);

        double total = 0.0;
        if (!p.use_collector) {
          const auto results = co_await navm::forall(
              ctx, navm::kDotTask, p.workers, [&](std::uint32_t i) {
                return navm::make_dot_params({a_parts[i], b_parts[i]});
              });
          for (const auto& r : results) total += navm::as_real(r);
        } else {
          const auto collector = ctx.make_collector(p.workers);
          ctx.initiate("bench.dot.deposit", p.workers, [&](std::uint32_t i) {
            return sysvm::Payload::of(
                DepositDotArgs{a_parts[i], b_parts[i], ctx.cluster(),
                               collector},
                2 * navm::Window::kDescriptorBytes + 16);
          });
          const auto deposits = co_await ctx.collect(collector);
          for (const auto& d : deposits) total += navm::as_real(d);
          (void)co_await ctx.join(p.workers);
        }
        co_return navm::payload_real(total);
      });

  runtime.define_task(
      "bench.dot.deposit", [](navm::TaskContext& ctx) -> navm::Coro {
        const auto& args = ctx.params().as<DepositDotArgs>();
        const auto a = co_await ctx.read(args.a);
        const auto b = co_await ctx.read(args.b);
        ctx.charge_flops(2 * a.size());
        co_await ctx.deposit(args.home, args.collector,
                             navm::payload_real(la::dot(a, b)));
        co_return sysvm::Payload{};
      });

  // axpy over K window pairs.
  runtime.define_task(
      "bench.axpy.driver", [](navm::TaskContext& ctx) -> navm::Coro {
        const auto workers =
            static_cast<std::uint32_t>(navm::as_int(ctx.params()));
        std::vector<double> x(kN, 1.5), y(kN, 0.25);
        const auto wx = ctx.create_vector(std::move(x));
        const auto wy = ctx.create_vector(std::move(y));
        const auto xs = wx.split_rows(workers);
        const auto ys = wy.split_rows(workers);
        (void)co_await navm::forall(
            ctx, navm::kAxpyTask, workers, [&](std::uint32_t i) {
              return navm::make_axpy_params({2.0, xs[i], ys[i]});
            });
        const auto y_after = co_await ctx.read(wy);
        co_return navm::payload_real(y_after.front());
      });
}

double flops_per_kcycle(std::uint64_t flops, hw::Cycles cycles) {
  return static_cast<double>(flops) / (static_cast<double>(cycles) / 1e3);
}

void dot_sweep() {
  support::Table table(
      "Distributed inner product, n = 16384, 4 clusters x 8 PEs");
  table.set_header({"workers", "reduction", "cycles", "flop / kcycle",
                    "messages"});
  std::vector<std::uint32_t> workers = {1, 2, 4, 8, 16};
  if (bench::smoke()) workers = {1, 4};
  for (const bool use_collector : {false, true}) {
    for (const std::uint32_t k : workers) {
      bench::Stack stack(bench::machine_shape(4, 8));
      register_drivers(*stack.runtime);
      const auto task = stack.runtime->launch(
          "bench.dot.driver",
          sysvm::Payload::of(DotDriverParams{k, use_collector}, 8));
      stack.runtime->run();
      FEM2_CHECK(stack.os->task_finished(task));
      table.row()
          .cell(static_cast<std::uint64_t>(k))
          .cell(use_collector ? "collector deposits" : "join (terminate)")
          .cell(static_cast<std::uint64_t>(stack.machine->now()))
          .cell(flops_per_kcycle(2 * kN, stack.machine->now()), 1)
          .cell(stack.os->stats().total_messages());
      bench::note("dot_cycles_" +
                      std::string(use_collector ? "collector" : "join") +
                      "_k" + std::to_string(k),
                  static_cast<double>(stack.machine->now()), "cycles");
    }
  }
  table.print(std::cout);
}

void axpy_sweep() {
  support::Table table("Distributed axpy, n = 16384");
  table.set_header({"workers", "cycles", "flop / kcycle"});
  std::vector<std::uint32_t> workers = {1, 2, 4, 8, 16};
  if (bench::smoke()) workers = {1, 4};
  for (const std::uint32_t k : workers) {
    bench::Stack stack(bench::machine_shape(4, 8));
    register_drivers(*stack.runtime);
    const auto task = stack.runtime->launch("bench.axpy.driver",
                                            navm::payload_int(k));
    stack.runtime->run();
    FEM2_CHECK(stack.os->task_finished(task));
    table.row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(static_cast<std::uint64_t>(stack.machine->now()))
        .cell(flops_per_kcycle(2 * kN, stack.machine->now()), 1);
    bench::note("axpy_cycles_k" + std::to_string(k),
                static_cast<double>(stack.machine->now()), "cycles");
  }
  table.print(std::cout);
}

void matvec_sweep() {
  const auto model =
      bench::cantilever_sheet(bench::smoke() ? 24u : 48u, 12);
  const auto system = fem::assemble(model);
  const auto& a = system.stiffness;
  const std::size_t n = a.rows();

  support::Table table("Distributed sparse matvec (stiffness sheet)");
  table.set_header({"workers", "cycles", "flop / kcycle", "traffic"});
  std::vector<std::uint32_t> workers = {1, 2, 4, 8, 16};
  if (bench::smoke()) workers = {1, 4};
  for (const std::uint32_t k : workers) {
    bench::Stack stack(bench::machine_shape(4, 8));
    auto& runtime = *stack.runtime;
    runtime.define_task(
        "bench.matvec.driver", [&](navm::TaskContext& ctx) -> navm::Coro {
          std::vector<double> x(n, 1.0);
          const auto wx = ctx.create_vector(std::move(x));
          const auto wy = ctx.create_vector(std::vector<double>(n, 0.0));
          const auto y_parts = wy.split_rows(k);
          (void)co_await navm::forall(
              ctx, navm::kMatvecTask, k, [&](std::uint32_t i) {
                const std::size_t r0 = navm::block_begin(n, k, i);
                const std::size_t r1 = navm::block_begin(n, k, i + 1);
                la::TripletBuilder builder(r1 - r0, n);
                for (std::size_t r = r0; r < r1; ++r) {
                  std::span<const std::size_t> cols;
                  std::span<const double> vals;
                  a.row(r, cols, vals);
                  for (std::size_t idx = 0; idx < cols.size(); ++idx)
                    builder.add(r - r0, cols[idx], vals[idx]);
                }
                return navm::make_matvec_params(
                    {builder.build(), r0, wx, y_parts[i]});
              });
          co_return sysvm::Payload{};
        });
    const auto task = runtime.launch("bench.matvec.driver");
    runtime.run();
    FEM2_CHECK(stack.os->task_finished(task));
    table.row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(static_cast<std::uint64_t>(stack.machine->now()))
        .cell(flops_per_kcycle(2 * a.nonzeros(), stack.machine->now()), 1)
        .cell(support::format_bytes(
            stack.machine->metrics().total_bytes()));
    bench::note("matvec_cycles_k" + std::to_string(k),
                static_cast<double>(stack.machine->now()), "cycles");
  }
  table.print(std::cout);
}

void csr_kernel_sweep() {
  // Host-side CSR kernels behind the fast solve path (E15): spmv_rows over
  // row partitions must be bitwise identical to the whole-matrix product at
  // every lane count, because the host backend calls it per lane without
  // locking.  Reported metrics are structural (nnz-derived), so they are
  // deterministic and gated by the baseline.
  const auto model = bench::cantilever_sheet(bench::smoke() ? 24u : 48u, 12);
  const auto system = fem::assemble(model);
  const auto& a = system.stiffness;
  const std::size_t n = a.rows();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = static_cast<double>(i % 101) / 101.0 - 0.5;
  const la::Vector reference = a.multiply(x);

  support::Table table("Host CSR spmv_rows partition (stiffness sheet)");
  table.set_header({"lanes", "rows / lane", "flop / row", "bitwise"});
  for (const std::size_t lanes : {1u, 2u, 4u, 8u}) {
    la::Vector y(n, 0.0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      const std::size_t r0 = navm::block_begin(n, lanes, lane);
      const std::size_t r1 = navm::block_begin(n, lanes, lane + 1);
      la::spmv_rows(a.row_ptr(), a.col_idx(), a.values(), x, r0, r1,
                    std::span<double>(y).subspan(r0, r1 - r0));
    }
    bool bitwise = true;
    for (std::size_t i = 0; i < n; ++i)
      bitwise = bitwise && y[i] == reference[i];
    FEM2_CHECK_MSG(bitwise, "spmv_rows partition diverged from multiply()");
    table.row()
        .cell(static_cast<std::uint64_t>(lanes))
        .cell(static_cast<std::uint64_t>((n + lanes - 1) / lanes))
        .cell(2.0 * static_cast<double>(a.nonzeros()) /
                  static_cast<double>(n),
              1)
        .cell("yes");
  }
  table.print(std::cout);
  bench::note("csr_spmv_nnz", static_cast<double>(a.nonzeros()), "nnz");
  bench::note("csr_storage_bytes", static_cast<double>(a.storage_bytes()),
              "bytes");
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("E8", argc, argv);
  bench::print_header("E8 bench_linear_algebra",
                      "distributed inner product / axpy / matvec through "
                      "windows");
  dot_sweep();
  std::cout << "\n";
  axpy_sweep();
  std::cout << "\n";
  matvec_sweep();
  std::cout << "\n";
  csr_kernel_sweep();
  std::cout << "\nShape check: throughput rises with workers until window "
               "traffic dominates;\ncollector reduction trades "
               "terminate-notify messages for remote-call\ndeposits with "
               "similar totals at small K.\n";
  return bench::finish();
}
