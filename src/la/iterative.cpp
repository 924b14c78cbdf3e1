#include "la/iterative.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/check.hpp"

namespace fem2::la {

std::string SolveReport::to_string() const {
  std::ostringstream os;
  os << method << ": " << (converged ? "converged" : "NOT converged")
     << " in " << iterations << " iterations, relative residual "
     << residual_norm;
  return os.str();
}

double relative_residual(const CsrMatrix& a, std::span<const double> x,
                         std::span<const double> b) {
  Vector ax = a.multiply(x);
  Vector r = subtract(b, ax);
  const double bn = norm2(b);
  return bn > 0.0 ? norm2(r) / bn : norm2(r);
}

SolveResult conjugate_gradient(const CsrMatrix& a, std::span<const double> b,
                               const SolveOptions& options) {
  FEM2_CHECK(a.rows() == a.cols());
  FEM2_CHECK(b.size() == a.rows());
  const std::size_t n = a.rows();

  SolveResult out;
  out.x.assign(n, 0.0);

  // Jacobi preconditioning, z = D⁻¹ r, with 1/a_ii formed once here.
  const bool jacobi = options.jacobi_preconditioner;
  Vector inv_diag;
  if (jacobi) {
    inv_diag = a.diagonal();
    for (double& d : inv_diag) {
      FEM2_CHECK_MSG(d != 0.0, "zero diagonal with Jacobi preconditioner");
      d = 1.0 / d;
    }
  }
  out.report.method = jacobi ? "pcg-jacobi" : "cg";

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }

  // Every per-iteration vector lives in a buffer made here; without a
  // preconditioner z is r itself.
  Vector r(b.begin(), b.end());  // r = b - A·0
  Vector z(jacobi ? n : 0);
  Vector ap(n);
  auto precondition = [&]() -> std::span<const double> {
    if (!jacobi) return r;
    hadamard(inv_diag, r, z);
    return z;
  };
  std::span<const double> zr = precondition();
  Vector p(zr.begin(), zr.end());
  double rz = dot(r, zr);

  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const double rn = norm2(r) / bnorm;
    out.report.iterations = it;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.report.converged = true;
      return out;
    }
    a.multiply_rows(p, ap);
    const double pap = dot(p, ap);
    if (pap <= 0.0) {
      // Not SPD (or breakdown); stop with the best iterate we have.
      return out;
    }
    const double alpha = rz / pap;
    axpy(alpha, p, out.x);
    axpy(-alpha, ap, r);
    zr = precondition();
    const double rz_next = dot(r, zr);
    const double beta = rz_next / rz;
    rz = rz_next;
    xpay(zr, beta, p);
  }
  out.report.iterations = options.max_iterations;
  out.report.residual_norm = norm2(r) / bnorm;
  out.report.converged = out.report.residual_norm <= options.tolerance;
  return out;
}

namespace {

/// One sweep's running state: the residual norm of the iterate it reads
/// and whether it met a row with no usable diagonal.
struct SweepState {
  LaneNorm residual;
  bool zero_diag = false;
};

// Relaxation from x⁰ = 0, one pass over A per sweep.  Row i of the sweep
// x^k -> x^{k+1} also forms r_i = (b - A x^k)_i with spmv_rows' two
// accumulators (entries at even and odd offsets from the row start) and
// dot()'s lanes, so the residual is bit-identical to
// relative_residual(a, x^k, b) without a second pass.  sigma =
// sum_{j != i} a_ij x_j uses the newest x_j, in column order: x_j^{k+1}
// below the diagonal, x_j^k above it, where a_ij x_j^k is one product
// feeding both sums.  update(x_i^k, r_i, b_i - sigma, a_ii) returns
// x_i^{k+1}: the methods differ only there.
//
// Each sweep is a chain, x_{i-1} -> x_i, so two run at once.  Row i of
// sweep s reads x^s_j only for j <= i + u, u the upper bandwidth, so once
// sweep s-1 is h = max(u + 1, ceil(n/2)) rows ahead every x^s_j sweep s
// needs is written.  Phase s runs rows [0, h) of sweep s interleaved with
// rows [h, n) of sweep s-1, over three iterates in rotation (x^{s-1},
// x^s, x^{s+1}); a matrix with u + 1 >= n runs one sweep per phase.
// Sweep s-1 is judged at the end of phase s, as each sweep was judged
// when it ran alone: a converged x^{s-1} comes back from its buffer and a
// zero diagonal throws only after that.  Every sum keeps its order, so
// each bit is the one-sweep-at-a-time loop's.
template <typename Update>
SolveResult relax(const CsrMatrix& a, std::span<const double> b,
                  const SolveOptions& options, std::string method,
                  const char* zero_diagonal_message, Update update) {
  FEM2_CHECK(a.rows() == a.cols());
  FEM2_CHECK(b.size() == a.rows());
  const std::size_t n = a.rows();

  SolveResult out;
  out.report.method = std::move(method);
  out.x.assign(n, 0.0);

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }

  const std::size_t* row_ptr = a.row_ptr().data();
  const std::size_t* cols = a.col_idx().data();
  const double* vals = a.values().data();
  // Once per solve: each row's first entry at or right of the diagonal,
  // and the upper bandwidth.
  std::vector<std::size_t> mid(n);
  std::size_t upper = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t* end = cols + row_ptr[i + 1];
    mid[i] = static_cast<std::size_t>(
        std::lower_bound(cols + row_ptr[i], end, i) - cols);
    if (mid[i] < row_ptr[i + 1]) upper = std::max(upper, end[-1] - i);
  }
  const std::size_t h = std::max(upper + 1, (n + 1) / 2);

  // Row i of the sweep xk -> xn, in three parts: the entries left of the
  // diagonal, the diagonal, the entries right of it.  The loops have no
  // branch in their bodies; a part with an odd count swaps the
  // accumulators, so the next entry still lands in the one its offset
  // from the row start picks.  Inlined at every call, so the two sweeps'
  // rows interleave in one instruction stream.
  const auto row = [&](std::size_t i, const double* xk, double* xn,
                       SweepState& sweep) __attribute__((always_inline)) {
    const std::size_t start = row_ptr[i];
    const std::size_t end = row_ptr[i + 1];
    const std::size_t d = mid[i];
    double acc0 = 0.0, acc1 = 0.0, sigma = 0.0;
    std::size_t k = start;
    for (; k + 2 <= d; k += 2) {
      acc0 += vals[k] * xk[cols[k]];
      sigma += vals[k] * xn[cols[k]];
      acc1 += vals[k + 1] * xk[cols[k + 1]];
      sigma += vals[k + 1] * xn[cols[k + 1]];
    }
    if (k < d) {
      acc0 += vals[k] * xk[cols[k]];
      sigma += vals[k] * xn[cols[k]];
      std::swap(acc0, acc1);
      ++k;
    }
    double diag = 0.0;  // what a row with no stored a_ii reads
    if (k < end && cols[k] == i) {
      diag = vals[k];
      acc0 += diag * xk[i];
      std::swap(acc0, acc1);
      ++k;
    }
    for (; k + 2 <= end; k += 2) {
      const double p0 = vals[k] * xk[cols[k]];
      const double p1 = vals[k + 1] * xk[cols[k + 1]];
      acc0 += p0;
      sigma += p0;
      acc1 += p1;
      sigma += p1;
    }
    if (k < end) {
      const double p = vals[k] * xk[cols[k]];
      acc0 += p;
      sigma += p;
      std::swap(acc0, acc1);
    }
    // After an odd count of swaps acc0 holds the odd-offset sum; addition
    // commutes, so r is spmv_rows' residual either way.
    const double r = b[i] - (acc0 + acc1);
    sweep.residual.add(i, r);
    sweep.zero_diag |= diag == 0.0;
    xn[i] = diag == 0.0 ? xk[i] : update(xk[i], r, b[i] - sigma, diag);
  };

  Vector iterates[3] = {std::move(out.x), Vector(n), Vector(n)};
  SweepState sweeps[2] = {{LaneNorm(n)}, {LaneNorm(n)}};
  const std::size_t max_it = options.max_iterations;
  for (std::size_t s = 0; s <= max_it; ++s) {
    // Sweep s (leading) maps x^s to x^{s+1}; sweep s-1 (trailing) maps
    // x^{s-1} to x^s.  No sweep at or beyond max_iterations starts.
    const bool lead = s < max_it;
    const bool trail = s > 0;
    double* x_prev = iterates[(s + 2) % 3].data();
    double* x_cur = iterates[s % 3].data();
    double* x_next = iterates[(s + 1) % 3].data();
    SweepState& leading = sweeps[s % 2];
    SweepState& trailing = sweeps[(s + 1) % 2];
    if (lead) leading = {LaneNorm(n)};
    const std::size_t lead_rows = lead ? h : 0;
    const std::size_t trail_rows = trail ? n - h : 0;
    const std::size_t paired = std::min(lead_rows, trail_rows);
    for (std::size_t t = 0; t < paired; ++t) {
      row(t, x_cur, x_next, leading);
      row(h + t, x_prev, x_cur, trailing);
    }
    for (std::size_t t = paired; t < lead_rows; ++t)
      row(t, x_cur, x_next, leading);
    for (std::size_t t = paired; t < trail_rows; ++t)
      row(h + t, x_prev, x_cur, trailing);
    if (!trail) continue;
    const double rn = trailing.residual.norm() / bnorm;
    out.report.iterations = s - 1;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.x = std::move(iterates[(s + 2) % 3]);
      out.report.converged = true;
      return out;
    }
    FEM2_CHECK_MSG(!trailing.zero_diag, zero_diagonal_message);
  }
  out.x = std::move(iterates[max_it % 3]);
  out.report.iterations = max_it;
  out.report.residual_norm = relative_residual(a, out.x, b);
  out.report.converged = out.report.residual_norm <= options.tolerance;
  return out;
}

}  // namespace

SolveResult jacobi(const CsrMatrix& a, std::span<const double> b,
                   const SolveOptions& options) {
  // x^{k+1} = x^k + D⁻¹ (b - A x^k).
  return relax(a, b, options, "jacobi", "Jacobi requires a nonzero diagonal",
               [](double xi, double r, double, double diag) {
                 return xi + r / diag;
               });
}

SolveResult sor(const CsrMatrix& a, std::span<const double> b,
                const SolveOptions& options) {
  FEM2_CHECK_MSG(options.sor_omega > 0.0 && options.sor_omega < 2.0,
                 "SOR requires omega in (0, 2)");
  const double omega = options.sor_omega;
  // Gauss-Seidel's x_i = (b_i - sigma) / a_ii, over-relaxed by omega.
  return relax(a, b, options, omega == 1.0 ? "gauss-seidel" : "sor",
               "SOR requires a nonzero diagonal",
               [omega](double xi, double, double b_sigma, double diag) {
                 return xi + omega * (b_sigma / diag - xi);
               });
}

}  // namespace fem2::la
