#include "la/iterative.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "la/precond.hpp"
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

  // Explicit preconditioner wins; the jacobi_preconditioner flag is
  // shorthand that builds one here.
  std::unique_ptr<JacobiPreconditioner> owned_jacobi;
  const Preconditioner* precond = options.preconditioner;
  if (precond == nullptr && options.jacobi_preconditioner) {
    owned_jacobi = std::make_unique<JacobiPreconditioner>(a);
    precond = owned_jacobi.get();
  }
  if (precond != nullptr) FEM2_CHECK(precond->size() == n);
  out.report.method = precond ? "pcg-" + precond->name() : "cg";

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }

  // Every per-iteration vector lives in a buffer made here; without a
  // preconditioner z is r itself.
  Vector r(b.begin(), b.end());  // r = b - A·0
  Vector z(precond != nullptr ? n : 0);
  Vector ap(n);
  auto precondition = [&]() -> std::span<const double> {
    if (precond == nullptr) return r;
    precond->apply(r, z);
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
    a.multiply_rows(p, 0, n, ap);
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

SolveResult jacobi(const CsrMatrix& a, std::span<const double> b,
                   const SolveOptions& options) {
  FEM2_CHECK(a.rows() == a.cols());
  FEM2_CHECK(b.size() == a.rows());
  const std::size_t n = a.rows();

  SolveResult out;
  out.report.method = "jacobi";
  out.x.assign(n, 0.0);

  Vector diag = a.diagonal();
  for (double d : diag)
    FEM2_CHECK_MSG(d != 0.0, "Jacobi requires a nonzero diagonal");

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }

  Vector ax(n);
  Vector next(n);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    a.multiply_rows(out.x, 0, n, ax);
    // x' = x + D⁻¹ (b - A x), formed alongside ‖b - A x‖; a converged x
    // is returned and x' dropped.
    LaneNorm residual(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double r = b[i] - ax[i];
      residual.add(i, r);
      next[i] = out.x[i] + r / diag[i];
    }
    const double rn = residual.norm() / bnorm;
    out.report.iterations = it;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.report.converged = true;
      return out;
    }
    out.x.swap(next);
  }
  out.report.iterations = options.max_iterations;
  out.report.residual_norm = relative_residual(a, out.x, b);
  out.report.converged = out.report.residual_norm <= options.tolerance;
  return out;
}

SolveResult sor(const CsrMatrix& a, std::span<const double> b,
                const SolveOptions& options) {
  FEM2_CHECK(a.rows() == a.cols());
  FEM2_CHECK(b.size() == a.rows());
  FEM2_CHECK_MSG(options.sor_omega > 0.0 && options.sor_omega < 2.0,
                 "SOR requires omega in (0, 2)");
  const std::size_t n = a.rows();

  SolveResult out;
  out.report.method =
      options.sor_omega == 1.0 ? "gauss-seidel" : "sor";
  out.x.assign(n, 0.0);

  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }

  // One pass over A per sweep.  Row i of the sweep x^k -> x^{k+1} also
  // forms (b - A x^k)_i, from a copy of x^k, with spmv_rows' two
  // accumulators and dot()'s lanes: the residual is bit-identical to
  // relative_residual(a, x^k, b) without a second pass.  For j > i,
  // x_j is still x_j^k, so a_ij x_j^k is one product feeding both sums;
  // sigma keeps its column order.  A converged x^k comes back from the
  // copy and the sweep's x^{k+1} is dropped.
  const auto row_ptr = a.row_ptr();
  const std::size_t* cols = a.col_idx().data();
  const double* vals = a.values().data();
  const double omega = options.sor_omega;
  Vector prev(n);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    std::copy(out.x.begin(), out.x.end(), prev.begin());
    const double* xk = prev.data();
    double* x = out.x.data();
    LaneNorm residual(n);
    bool zero_diag = false;
    for (std::size_t i = 0; i < n; ++i) {
      double acc0 = 0.0, acc1 = 0.0, sigma = 0.0, diag = 0.0;
      auto term = [&](std::size_t k, double& acc) {
        const std::size_t j = cols[k];
        const double p = vals[k] * xk[j];
        acc += p;
        if (j == i) {
          diag = vals[k];
        } else {
          sigma += j > i ? p : vals[k] * x[j];
        }
      };
      std::size_t k = row_ptr[i];
      const std::size_t end = row_ptr[i + 1];
      for (; k + 2 <= end; k += 2) {
        term(k, acc0);
        term(k + 1, acc1);
      }
      if (k < end) term(k, acc0);
      residual.add(i, b[i] - (acc0 + acc1));
      // A zero diagonal fails the sweep only once x^k is known not to
      // have converged, as a separate residual pass would.
      if (diag == 0.0) {
        zero_diag = true;
        continue;
      }
      const double gs = (b[i] - sigma) / diag;
      x[i] += omega * (gs - x[i]);
    }
    const double rn = residual.norm() / bnorm;
    out.report.iterations = it;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.x.swap(prev);
      out.report.converged = true;
      return out;
    }
    FEM2_CHECK_MSG(!zero_diag, "SOR requires a nonzero diagonal");
  }
  out.report.iterations = options.max_iterations;
  out.report.residual_norm = relative_residual(a, out.x, b);
  out.report.converged = out.report.residual_norm <= options.tolerance;
  return out;
}

}  // namespace fem2::la
