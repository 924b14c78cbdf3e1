// Iterative solvers: conjugate gradients (the FEM-2 equation-level
// parallelism workhorse), Jacobi, and Gauss-Seidel/SOR (the relaxation
// methods the original Finite Element Machine ran).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>

#include "la/sparse.hpp"
#include "la/vec_ops.hpp"

namespace fem2::la {

struct SolveOptions {
  double tolerance = 1e-10;      ///< relative residual ‖r‖/‖b‖ target
  std::size_t max_iterations = 10'000;
  double sor_omega = 1.0;        ///< 1.0 == plain Gauss-Seidel
  bool jacobi_preconditioner = false;  ///< for CG: z = D⁻¹ r, D = diag(A)
};

struct SolveReport {
  bool converged = false;
  std::size_t iterations = 0;
  double residual_norm = 0.0;    ///< final relative residual
  std::string method;

  std::string to_string() const;
};

/// Result bundle: solution plus convergence report.
struct SolveResult {
  Vector x;
  SolveReport report;
};

/// Conjugate gradients for SPD systems, with optional Jacobi (diagonal)
/// preconditioning.
SolveResult conjugate_gradient(const CsrMatrix& a, std::span<const double> b,
                               const SolveOptions& options = {});

/// Jacobi iteration (requires a nonzero diagonal once it has to sweep;
/// converges for strictly diagonally dominant or
/// SPD-with-small-spectral-radius systems).
SolveResult jacobi(const CsrMatrix& a, std::span<const double> b,
                   const SolveOptions& options = {});

/// Successive over-relaxation; omega = 1 gives Gauss–Seidel.
SolveResult sor(const CsrMatrix& a, std::span<const double> b,
                const SolveOptions& options = {});

/// Relative residual ‖b − A x‖₂ / ‖b‖₂ (returns absolute norm if b = 0).
double relative_residual(const CsrMatrix& a, std::span<const double> x,
                         std::span<const double> b);

}  // namespace fem2::la
