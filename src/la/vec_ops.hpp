// Vector kernels.  Vectors are plain std::vector<double>; kernels take
// std::span so distributed-array shards (src/navm) reuse them unchanged.
//
// The kernels are written SIMD-friendly: unit-stride loops over raw
// pointers with multiple independent accumulators and no aliasing between
// inputs and outputs (except where documented).  Each reduction sums in
// one fixed order (4-way unrolled), so a result is bit-reproducible from
// its inputs alone.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

namespace fem2::la {

using Vector = std::vector<double>;

double dot(std::span<const double> x, std::span<const double> y);

/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// y = x + alpha * y (in place) — the CG direction update p = z + beta p.
void xpay(std::span<const double> x, double alpha, std::span<double> y);

/// x *= alpha
void scale(double alpha, std::span<double> x);

/// z = x .* y (elementwise) — diagonal preconditioner application.
void hadamard(std::span<const double> x, std::span<const double> y,
              std::span<double> z);

double norm2(std::span<const double> x);

/// norm2(x) fed one element at a time, x[i] through add(i, x[i]), summed
/// in dot()'s lane order so the result is bit-identical: lets a solver
/// form a residual's norm in the pass that produces the residual.
class LaneNorm {
 public:
  explicit LaneNorm(std::size_t n) : blocked_(n - n % 4) {}

  void add(std::size_t i, double v) {
    lanes_[i < blocked_ ? i % 4 : 0] += v * v;
  }

  double norm() const {
    return std::sqrt((lanes_[0] + lanes_[1]) + (lanes_[2] + lanes_[3]));
  }

 private:
  std::size_t blocked_;  ///< dot() runs rows past this in its tail loop
  double lanes_[4] = {0.0, 0.0, 0.0, 0.0};
};

double norm_inf(std::span<const double> x);

/// z = x - y
Vector subtract(std::span<const double> x, std::span<const double> y);

/// z = x + y
Vector add(std::span<const double> x, std::span<const double> y);

/// y[r] = sum_k values[k] * x[col_idx[k]] over every CSR row r
/// (row_ptr.size() == y.size() + 1).  The raw CSR SpMV kernel behind
/// CsrMatrix::multiply_rows; each row sums in two alternating
/// accumulators, an order the Jacobi/SOR sweep's residual repeats.
void spmv_rows(std::span<const std::size_t> row_ptr,
               std::span<const std::size_t> col_idx,
               std::span<const double> values, std::span<const double> x,
               std::span<double> y);

}  // namespace fem2::la
