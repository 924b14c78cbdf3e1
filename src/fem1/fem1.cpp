#include "fem1/fem1.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "fem/assembly.hpp"
#include "la/iterative.hpp"
#include "la/vec_ops.hpp"
#include "navm/window.hpp"  // block_begin
#include "support/check.hpp"

namespace fem2::fem1 {

std::string Fem1Result::summary() const {
  std::ostringstream os;
  os << (completed ? (converged ? "converged" : "did not converge")
                   : "STALLED (failed processor, static assignment)")
     << ", iterations " << iterations << ", elapsed " << elapsed
     << " cycles, utilization " << pe_utilization;
  return os.str();
}

namespace {

/// Grid coordinates of processor p in a near-square arrangement.
struct GridShape {
  std::size_t cols;
  std::size_t rows;
};

GridShape grid_shape(std::size_t processors) {
  auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(processors))));
  const std::size_t rows = (processors + cols - 1) / cols;
  return {cols, rows};
}

bool are_grid_neighbors(std::size_t p, std::size_t q, GridShape shape) {
  const auto pr = p / shape.cols, pc = p % shape.cols;
  const auto qr = q / shape.cols, qc = q % shape.cols;
  const auto dr = pr > qr ? pr - qr : qr - pr;
  const auto dc = pc > qc ? pc - qc : qc - pc;
  return dr <= 1 && dc <= 1 && !(dr == 0 && dc == 0);
}

}  // namespace

Fem1Result fem1_solve(const la::CsrMatrix& k, std::span<const double> rhs,
                      const Fem1Config& config, Fem1Solver solver,
                      double tolerance, std::size_t max_iterations) {
  FEM2_CHECK(k.rows() == k.cols());
  FEM2_CHECK(rhs.size() == k.rows());
  FEM2_CHECK(config.processors > 0);

  Fem1Result out;

  // Static assignment cannot route around failures.
  if (config.failed_processors > 0 && !config.manual_repartition) {
    out.completed = false;
    return out;
  }
  FEM2_CHECK_MSG(config.failed_processors < config.processors,
                 "no surviving processors");
  const std::size_t p_eff = config.processors - config.failed_processors;

  const std::size_t n = k.rows();
  const GridShape shape = grid_shape(p_eff);

  // Rows (dofs) striped in contiguous blocks across surviving processors.
  const std::size_t p_used = std::min(p_eff, n);
  std::vector<std::size_t> row_owner(n);
  {
    std::size_t p = 0;
    for (std::size_t r = 0; r < n; ++r) {
      while (r >= navm::block_begin(n, p_used, p + 1)) ++p;
      row_owner[r] = p;
    }
  }

  // --- per-sweep cost model (identical every sweep) -----------------------
  std::vector<std::uint64_t> flops(p_used, 0);
  std::vector<std::uint64_t> link_words(p_used, 0);
  std::vector<std::uint64_t> link_transfers(p_used, 0);
  std::uint64_t bus_words_per_sweep = 0;
  std::uint64_t bus_messages_per_sweep = 0;

  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t p = row_owner[r];
    std::span<const std::size_t> cols;
    std::span<const double> vals;
    k.row(r, cols, vals);
    flops[p] += 2 * cols.size() + 2;
    for (const std::size_t c : cols) {
      const std::size_t q = row_owner[c];
      if (q == p) continue;
      if (are_grid_neighbors(p, q, shape)) {
        link_words[p] += 1;
        link_transfers[p] += 1;
      } else {
        bus_words_per_sweep += 1;
        bus_messages_per_sweep += 1;
      }
    }
  }

  hw::Cycles slowest = 0;
  std::uint64_t compute_total = 0;
  for (std::size_t p = 0; p < p_used; ++p) {
    const hw::Cycles t =
        flops[p] * config.cycles_per_flop +
        link_transfers[p] * config.link_latency +
        static_cast<hw::Cycles>(static_cast<double>(link_words[p]) *
                                config.link_cycles_per_word);
    slowest = std::max(slowest, t);
    compute_total += flops[p] * config.cycles_per_flop;
  }
  // The bus is time-shared: all bus traffic serializes after local work.
  const hw::Cycles bus_time =
      bus_messages_per_sweep * config.bus_latency / std::max<std::size_t>(p_used, 1) +
      static_cast<hw::Cycles>(static_cast<double>(bus_words_per_sweep) *
                              config.bus_cycles_per_word);
  const hw::Cycles sweep_time =
      slowest + bus_time + config.sweep_sync_overhead;

  // --- run the relaxation numerically to count sweeps -----------------------
  la::SolveOptions iter_options;
  iter_options.tolerance = tolerance;
  iter_options.max_iterations = max_iterations;
  iter_options.sor_omega = 1.0;
  const la::SolveResult numeric =
      solver == Fem1Solver::Jacobi ? la::jacobi(k, rhs, iter_options)
                                   : la::sor(k, rhs, iter_options);

  out.completed = true;
  out.converged = numeric.report.converged;
  out.iterations = numeric.report.iterations;
  out.residual = numeric.report.residual_norm;
  out.elapsed = sweep_time * numeric.report.iterations;
  if (config.manual_repartition && config.failed_processors > 0)
    out.elapsed += config.repartition_cost;
  out.link_messages = 0;
  for (std::size_t p = 0; p < p_used; ++p) {
    out.link_messages += link_transfers[p];
    out.link_words += link_words[p];
  }
  out.link_messages *= out.iterations;
  out.link_words *= out.iterations;
  out.bus_messages = bus_messages_per_sweep * out.iterations;
  out.bus_words = bus_words_per_sweep * out.iterations;
  const double denom = static_cast<double>(out.elapsed) *
                       static_cast<double>(config.processors);
  out.pe_utilization =
      denom > 0.0
          ? static_cast<double>(compute_total * out.iterations) / denom
          : 0.0;
  return out;
}

Fem1Result fem1_solve_model(const fem::StructureModel& model,
                            const std::string& load_set,
                            const Fem1Config& config, Fem1Solver solver,
                            double tolerance, std::size_t max_iterations) {
  const auto it = model.load_sets.find(load_set);
  if (it == model.load_sets.end())
    throw support::Error("unknown load set: " + load_set);
  const fem::AssembledSystem system = fem::assemble(model);
  const auto rhs = system.load_vector(it->second);
  return fem1_solve(system.stiffness, rhs, config, solver, tolerance,
                    max_iterations);
}

}  // namespace fem2::fem1
