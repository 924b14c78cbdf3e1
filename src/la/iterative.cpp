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

/// What a row with no stored a_ii reads as its diagonal.
constexpr double kAbsentDiagonal = 0.0;

// Relaxation from x⁰ = 0, one pass over A per sweep.  Row i of the sweep
// x^k -> x^{k+1} also forms r_i = (b - A x^k)_i, from a copy of x^k, with
// spmv_rows' two accumulators and dot()'s lanes: the residual is
// bit-identical to relative_residual(a, x^k, b) without a second pass.
// sigma = sum_{j != i} a_ij x_j uses the newest x_j, in column order; for
// j > i that is still x_j^k, so a_ij x_j^k is one product feeding both
// sums.  update(x_i^k, r_i, b_i - sigma, a_ii) returns x_i^{k+1}: the
// methods differ only there.  A converged x^k comes back from the copy
// and the sweep's x^{k+1} is dropped.
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

  const auto row_ptr = a.row_ptr();
  const std::size_t* cols = a.col_idx().data();
  const double* vals = a.values().data();
  Vector prev(n);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    std::copy(out.x.begin(), out.x.end(), prev.begin());
    const double* xk = prev.data();
    double* x = out.x.data();
    LaneNorm residual(n);
    bool zero_diag = false;
    for (std::size_t i = 0; i < n; ++i) {
      double acc0 = 0.0, acc1 = 0.0, sigma = 0.0;
      // &a_ii, kept by a select rather than a branch: Jacobi, whose
      // update ignores sigma, then has no branch per entry.
      const double* diag_p = &kAbsentDiagonal;
      auto term = [&](std::size_t k, double& acc) {
        const std::size_t j = cols[k];
        const double p = vals[k] * xk[j];
        acc += p;
        diag_p = j == i ? vals + k : diag_p;
        if (j != i) sigma += j > i ? p : vals[k] * x[j];
      };
      std::size_t k = row_ptr[i];
      const std::size_t end = row_ptr[i + 1];
      for (; k + 2 <= end; k += 2) {
        term(k, acc0);
        term(k + 1, acc1);
      }
      if (k < end) term(k, acc0);
      const double diag = *diag_p;
      const double r = b[i] - (acc0 + acc1);
      residual.add(i, r);
      // A zero diagonal fails the sweep only once x^k is known not to
      // have converged, as a separate residual pass would.
      if (diag == 0.0) {
        zero_diag = true;
        continue;
      }
      x[i] = update(x[i], r, b[i] - sigma, diag);
    }
    const double rn = residual.norm() / bnorm;
    out.report.iterations = it;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.x.swap(prev);
      out.report.converged = true;
      return out;
    }
    FEM2_CHECK_MSG(!zero_diag, zero_diagonal_message);
  }
  out.report.iterations = options.max_iterations;
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
