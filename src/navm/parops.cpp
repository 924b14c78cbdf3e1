#include "navm/parops.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace fem2::navm {

// ---------------------------------------------------------------------------
// forall / pardo

void ForallAwait::await_suspend(std::coroutine_handle<>) {
  ctx.initiate(task_type, k, params_for);
  ctx.api().block_on_child_terminations(k);
}

std::vector<sysvm::Payload> ForallAwait::await_resume() {
  return ctx.take_child_results();
}

ForallAwait forall(TaskContext& ctx, std::string task_type, std::uint32_t k,
                   std::function<sysvm::Payload(std::uint32_t)> params_for) {
  return ForallAwait{ctx, std::move(task_type), k, std::move(params_for)};
}

void PardoAwait::await_suspend(std::coroutine_handle<>) {
  for (auto& spec : specs) {
    sysvm::Payload params = std::move(spec.params);
    ctx.initiate(spec.task_type, 1,
                 [&params](std::uint32_t) { return std::move(params); });
  }
  ctx.api().block_on_child_terminations(specs.size());
}

std::vector<sysvm::Payload> PardoAwait::await_resume() {
  return ctx.take_child_results();
}

PardoAwait pardo(TaskContext& ctx, std::vector<PardoSpec> specs) {
  return PardoAwait{ctx, std::move(specs)};
}

// ---------------------------------------------------------------------------
// payload builders

sysvm::Payload make_dot_params(const DotParams& p) {
  return sysvm::Payload::of(p, 2 * Window::kDescriptorBytes);
}

sysvm::Payload make_axpy_params(const AxpyParams& p) {
  return sysvm::Payload::of(p, 8 + 2 * Window::kDescriptorBytes);
}

sysvm::Payload make_matvec_params(MatvecParams p) {
  const std::size_t bytes =
      p.shard.storage_bytes() + 2 * Window::kDescriptorBytes + 16;
  return sysvm::Payload::of(std::move(p), bytes);
}

sysvm::Payload make_cg_problem(CgProblem problem) {
  const std::size_t bytes = problem.a.storage_bytes() +
                            problem.b.size() * sizeof(double) + 64;
  return sysvm::Payload::of(std::move(problem), bytes);
}

const CgResult& as_cg_result(const sysvm::Payload& p) {
  return p.as<CgResult>();
}

// ---------------------------------------------------------------------------
// internal protocol data

namespace {

struct CgWorkerParams {
  la::CsrMatrix shard;            ///< global rows [row0, row0+len), global cols
  std::vector<double> b_local;
  std::size_t row0 = 0;
  std::size_t n = 0;
  std::uint32_t index = 0;
  std::uint32_t total = 1;
  hw::ClusterId driver_cluster;
  std::uint64_t collector = 0;
  bool jacobi = false;            ///< Jacobi-precondition from the local diagonal
};

struct CgHello {
  Window p_window;
  std::size_t row0 = 0;
  std::size_t len = 0;
  double rr_local = 0.0;
  double rz_local = 0.0;  ///< == rr_local when unpreconditioned
};

/// Scalar reduction contribution, tagged with the worker index so the
/// driver can sum in index order.  Collector deposits arrive in an order
/// that depends on timing (and on faults); floating-point addition is not
/// associative, so arrival-order sums would make a faulted run diverge
/// bitwise from a fault-free one.
struct CgPart {
  std::uint32_t index = 0;
  double value = 0.0;
  double value2 = 0.0;  ///< second reduction riding the same deposit (r·z)
};

/// Index-ordered sums of (value, value2) over the deposited parts, which
/// carry the indices 0..k-1 once each.  Finding each index by a scan costs
/// k² compares for a handful of workers and allocates nothing.
std::pair<double, double> sum_indexed(const std::vector<sysvm::Payload>& parts) {
  double sum = 0.0;
  double sum2 = 0.0;
  for (std::uint32_t index = 0; index < parts.size(); ++index) {
    const auto part = std::find_if(
        parts.begin(), parts.end(), [index](const sysvm::Payload& p) {
          return p.as<CgPart>().index == index;
        });
    FEM2_CHECK_MSG(part != parts.end(), "missing reduction part");
    const auto& p = part->as<CgPart>();
    sum += p.value;
    sum2 += p.value2;
  }
  return {sum, sum2};
}

struct CgSetupDatum {
  std::vector<Window> p_windows;  ///< ordered by row0
  std::vector<std::size_t> row0;
  std::vector<std::size_t> len;
  bool done = false;  ///< b == 0: nothing to solve
};

struct CgAlphaDatum {
  double alpha = 0.0;
};

struct CgBetaDatum {
  double beta = 0.0;
  bool done = false;
};

struct CgGoDatum {};

struct CgShardResult {
  std::vector<double> x;
  std::size_t row0 = 0;
};

double local_dot(TaskContext& ctx, std::span<const double> a,
                 std::span<const double> b) {
  ctx.charge_flops(2 * a.size());
  return la::dot(a, b);
}

Coro dot_body(TaskContext& ctx) {
  const auto& p = ctx.params().as<DotParams>();
  const std::vector<double> a = co_await ctx.read(p.a);
  const std::vector<double> b = co_await ctx.read(p.b);
  FEM2_CHECK(a.size() == b.size());
  const double partial = local_dot(ctx, a, b);
  co_return payload_real(partial);
}

Coro axpy_body(TaskContext& ctx) {
  const auto& p = ctx.params().as<AxpyParams>();
  const std::vector<double> x = co_await ctx.read(p.x);
  std::vector<double> y = co_await ctx.read(p.y);
  FEM2_CHECK(x.size() == y.size());
  ctx.charge_flops(2 * x.size());
  la::axpy(p.alpha, x, y);
  co_await ctx.write(p.y, std::move(y));
  co_return sysvm::Payload{};
}

Coro matvec_body(TaskContext& ctx) {
  const auto& p = ctx.params().as<MatvecParams>();
  const std::vector<double> x = co_await ctx.read(p.x);
  std::vector<double> y(p.shard.rows(), 0.0);
  p.shard.multiply_rows(x, y);
  ctx.charge_flops(2 * p.shard.nonzeros());
  co_await ctx.write(p.y, std::move(y));
  co_return sysvm::Payload{};
}

// --- conjugate-gradient worker ------------------------------------------------
//
// Round structure (one collector on the driver, auto-resetting):
//   setup : deposit Hello{p window, rr_local}; pause -> SetupDatum
//   loop  : gather remote p segments through windows; q = A_i p
//           deposit p·q      ; pause -> alpha
//           update x, r; deposit r·r ; pause -> {beta, done}
//           if done: terminate with the x shard
//           p = r + beta p; publish p; deposit barrier; pause -> go
Coro cg_worker_body(TaskContext& ctx) {
  const auto& wp = ctx.params().as<CgWorkerParams>();
  const std::size_t len = wp.b_local.size();

  // Task-local state ("local data of a task retained over pause/resume").
  std::vector<double> x(len, 0.0);
  std::vector<double> r = wp.b_local;   // r = b - A·0
  std::vector<double> p_local = r;      // p = r
  std::vector<double> q(len, 0.0);

  // Jacobi preconditioning is worker-local: this shard owns its diagonal
  // rows, so M⁻¹ r costs one hadamard and no extra shipping.
  std::vector<double> inv_diag;
  std::vector<double> z;
  if (wp.jacobi) {
    inv_diag.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      const double d = wp.shard.value_at(i, wp.row0 + i);
      FEM2_CHECK_MSG(d != 0.0, "zero diagonal with Jacobi preconditioner");
      inv_diag[i] = 1.0 / d;
    }
    z.resize(len);
    la::hadamard(inv_diag, r, z);
    ctx.charge_flops(len);
    p_local = z;  // p = z = M⁻¹ r
  }

  // Published p shard, readable by peers through windows.
  const Window p_window = ctx.create_vector(p_local);

  // Column span this shard's matvec needs.
  std::size_t cmin = wp.row0;
  std::size_t cmax = wp.row0;
  bool any = false;
  for (const std::size_t c : wp.shard.col_idx()) {
    cmin = any ? std::min(cmin, c) : c;
    cmax = any ? std::max(cmax, c) : c;
    any = true;
  }

  // Deposits carry a per-worker monotonic token: if cluster-loss recovery
  // re-initiates this worker, replayed deposits are deduplicated by the
  // collector instead of double counting.
  std::uint64_t deposit_token = 0;

  const double rr_local = local_dot(ctx, r, r);
  const double rz_local = wp.jacobi ? local_dot(ctx, r, z) : rr_local;
  co_await ctx.deposit(
      wp.driver_cluster, wp.collector,
      sysvm::Payload::of(CgHello{p_window, wp.row0, len, rr_local, rz_local},
                         Window::kDescriptorBytes + (wp.jacobi ? 32 : 24)),
      ++deposit_token);
  const sysvm::Payload setup_payload = co_await ctx.pause();
  const auto& setup = setup_payload.as<CgSetupDatum>();

  if (setup.done) {
    co_return sysvm::Payload::of(CgShardResult{std::move(x), wp.row0},
                                 len * sizeof(double) + 16);
  }

  // Which peer shards overlap our needed column span.
  struct Overlap {
    std::size_t peer;
    std::size_t begin;  ///< within the peer's shard
    std::size_t count;
    std::size_t global_begin;
  };
  std::vector<Overlap> remote_overlaps;
  for (std::size_t j = 0; j < setup.p_windows.size(); ++j) {
    if (setup.row0[j] == wp.row0) continue;  // self
    const std::size_t lo = std::max(cmin, setup.row0[j]);
    const std::size_t hi = std::min(cmax + 1, setup.row0[j] + setup.len[j]);
    if (lo < hi)
      remote_overlaps.push_back({j, lo - setup.row0[j], hi - lo, lo});
  }

  std::vector<double> p_full(wp.n, 0.0);
  bool done = false;
  while (!done) {
    // --- gather p and run the local matvec -------------------------------
    std::copy(p_local.begin(), p_local.end(),
              p_full.begin() + static_cast<std::ptrdiff_t>(wp.row0));
    ctx.charge_words(len);
    for (const auto& ov : remote_overlaps) {
      co_await ctx.read_into(
          setup.p_windows[ov.peer].range(ov.begin, ov.count),
          std::span(p_full).subspan(ov.global_begin, ov.count));
    }
    wp.shard.multiply_rows(p_full, q);
    ctx.charge_flops(2 * wp.shard.nonzeros());

    // --- alpha round -------------------------------------------------------
    const double pq = local_dot(ctx, p_local, q);
    co_await ctx.deposit(wp.driver_cluster, wp.collector,
                         sysvm::Payload::of(CgPart{wp.index, pq}, 16),
                         ++deposit_token);
    const double alpha = as_real(co_await ctx.pause());

    ctx.charge_flops(4 * len);
    for (std::size_t i = 0; i < len; ++i) {
      x[i] += alpha * p_local[i];
      r[i] -= alpha * q[i];
    }

    // --- beta / convergence round -----------------------------------------
    const double rr = local_dot(ctx, r, r);
    double rz = rr;
    if (wp.jacobi) {
      la::hadamard(inv_diag, r, z);
      ctx.charge_flops(len);
      rz = local_dot(ctx, r, z);
    }
    co_await ctx.deposit(wp.driver_cluster, wp.collector,
                         sysvm::Payload::of(CgPart{wp.index, rr, rz},
                                            wp.jacobi ? 24u : 16u),
                         ++deposit_token);
    const sysvm::Payload beta_payload = co_await ctx.pause();
    const auto& control = beta_payload.as<CgBetaDatum>();
    done = control.done;
    if (done) break;

    // --- p update + publication barrier ------------------------------------
    ctx.charge_flops(2 * len);
    const std::vector<double>& direction = wp.jacobi ? z : r;
    for (std::size_t i = 0; i < len; ++i)
      p_local[i] = direction[i] + control.beta * p_local[i];
    co_await ctx.write(p_window, p_local);
    co_await ctx.deposit(wp.driver_cluster, wp.collector, sysvm::Payload{},
                         ++deposit_token);
    (void)co_await ctx.pause();  // go
  }

  co_return sysvm::Payload::of(CgShardResult{std::move(x), wp.row0},
                               len * sizeof(double) + 16);
}

// --- conjugate-gradient driver ------------------------------------------------

Coro cg_driver_body(TaskContext& ctx) {
  const auto& problem = ctx.params().as<CgProblem>();
  const std::size_t n = problem.a.rows();
  FEM2_CHECK_MSG(problem.a.cols() == n, "CG requires a square matrix");
  FEM2_CHECK_MSG(problem.b.size() == n, "rhs size mismatch");
  const std::uint32_t k =
      static_cast<std::uint32_t>(std::min<std::size_t>(problem.workers, n));
  FEM2_CHECK_MSG(k > 0, "CG needs at least one worker");

  const std::uint64_t collector = ctx.make_collector(k);

  // Partition rows into contiguous blocks and ship shards to the workers
  // ("large messages" are a designed-for property of the architecture).
  ctx.charge_words(2 * problem.a.nonzeros());
  const auto children = ctx.initiate(
      kCgWorkerTask, k, [&](std::uint32_t i) {
        const std::size_t r0 = block_begin(n, k, i);
        const std::size_t r1 = block_begin(n, k, i + 1);
        la::TripletBuilder builder(r1 - r0, n);
        for (std::size_t r = r0; r < r1; ++r) {
          std::span<const std::size_t> cols;
          std::span<const double> vals;
          problem.a.row(r, cols, vals);
          for (std::size_t idx = 0; idx < cols.size(); ++idx)
            builder.add(r - r0, cols[idx], vals[idx]);
        }
        CgWorkerParams wp;
        wp.shard = builder.build();
        wp.b_local.assign(problem.b.begin() + static_cast<std::ptrdiff_t>(r0),
                          problem.b.begin() + static_cast<std::ptrdiff_t>(r1));
        wp.row0 = r0;
        wp.n = n;
        wp.index = i;
        wp.total = k;
        wp.driver_cluster = ctx.cluster();
        wp.collector = collector;
        wp.jacobi = problem.jacobi_preconditioner;
        const std::size_t bytes = wp.shard.storage_bytes() +
                                  wp.b_local.size() * sizeof(double) + 96;
        return sysvm::Payload::of(std::move(wp), bytes);
      });

  // --- setup round ---------------------------------------------------------
  auto hellos = co_await ctx.collect(collector);
  FEM2_CHECK(hellos.size() == k);
  CgSetupDatum setup;
  {
    std::vector<CgHello> hs;
    hs.reserve(k);
    for (const auto& h : hellos) hs.push_back(h.as<CgHello>());
    std::sort(hs.begin(), hs.end(),
              [](const CgHello& a, const CgHello& b) { return a.row0 < b.row0; });
    // Sum in shard order, not arrival order (bitwise reproducibility).
    double bnorm2 = 0.0;
    double rz0 = 0.0;
    for (const auto& h : hs) bnorm2 += h.rr_local;
    for (const auto& h : hs) rz0 += h.rz_local;
    for (const auto& h : hs) {
      setup.p_windows.push_back(h.p_window);
      setup.row0.push_back(h.row0);
      setup.len.push_back(h.len);
    }
    setup.done = bnorm2 == 0.0;

    const std::size_t setup_bytes =
        k * (Window::kDescriptorBytes + 16) + 8;
    ctx.broadcast(children, sysvm::Payload::of(setup, setup_bytes));

    if (setup.done) {
      (void)co_await ctx.join(k);
      CgResult result;
      result.x.assign(n, 0.0);
      result.converged = true;
      co_return sysvm::Payload::of(std::move(result),
                                   n * sizeof(double) + 32);
    }

    // --- iterate ------------------------------------------------------------
    // alpha/beta run on r·z (== r·r unpreconditioned); convergence always
    // on ‖r‖/‖b‖ so tolerances mean the same thing either way.
    double rz = rz0;
    const double bnorm = std::sqrt(bnorm2);
    std::size_t iteration = 0;
    double residual = 1.0;
    bool done = false;
    while (!done) {
      // alpha round
      auto pq_parts = co_await ctx.collect(collector);
      const double pq = sum_indexed(pq_parts).first;
      ctx.charge_flops(k + 2);
      const double alpha = pq != 0.0 ? rz / pq : 0.0;
      ctx.broadcast(children, payload_real(alpha));

      // beta / convergence round
      auto rr_parts = co_await ctx.collect(collector);
      const auto [rr_new, rz_new] = sum_indexed(rr_parts);
      ctx.charge_flops(k + 4);
      ++iteration;
      residual = std::sqrt(rr_new) / bnorm;
      done = residual <= problem.tolerance ||
             iteration >= problem.max_iterations || pq == 0.0;
      const double beta = rz != 0.0 ? rz_new / rz : 0.0;
      rz = rz_new;
      ctx.broadcast(children,
                    sysvm::Payload::of(CgBetaDatum{beta, done}, 16));

      if (!done) {
        // publication barrier
        (void)co_await ctx.collect(collector);
        ctx.broadcast(children, sysvm::Payload::of(CgGoDatum{}, 1));
      }
    }

    // --- assemble ------------------------------------------------------------
    auto shard_results = co_await ctx.join(k);
    CgResult result;
    result.x.assign(n, 0.0);
    for (const auto& sr_payload : shard_results) {
      const auto& sr = sr_payload.as<CgShardResult>();
      std::copy(sr.x.begin(), sr.x.end(),
                result.x.begin() + static_cast<std::ptrdiff_t>(sr.row0));
    }
    ctx.charge_words(n);
    result.iterations = iteration;
    result.residual = residual;
    result.converged = residual <= problem.tolerance;
    co_return sysvm::Payload::of(std::move(result),
                                 n * sizeof(double) + 32);
  }
}

}  // namespace

void register_parallel_ops(Runtime& runtime) {
  runtime.define_task(kDotTask, dot_body, {256, 2048});
  runtime.define_task(kAxpyTask, axpy_body, {256, 2048});
  runtime.define_task(kMatvecTask, matvec_body, {512, 4096});
  runtime.define_task(kCgWorkerTask, cg_worker_body, {1024, 16384});
  runtime.define_task(kCgDriverTask, cg_driver_body, {1024, 16384});
}

}  // namespace fem2::navm
