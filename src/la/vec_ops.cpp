#include "la/vec_ops.hpp"

#include <cmath>

#include "support/check.hpp"

namespace fem2::la {

double dot(std::span<const double> x, std::span<const double> y) {
  FEM2_CHECK(x.size() == y.size());
  const std::size_t n = x.size();
  const double* a = x.data();
  const double* b = y.data();
  // Four independent accumulators: breaks the add dependency chain so the
  // loop vectorizes/pipelines; the summation order is fixed regardless of
  // lane count, keeping reductions bit-reproducible.  LaneNorm
  // (vec_ops.hpp) repeats this order; change both or neither.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += a[i] * b[i];
    s1 += a[i + 1] * b[i + 1];
    s2 += a[i + 2] * b[i + 2];
    s3 += a[i + 3] * b[i + 3];
  }
  for (; i < n; ++i) s0 += a[i] * b[i];
  return (s0 + s1) + (s2 + s3);
}

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  FEM2_CHECK(x.size() == y.size());
  const std::size_t n = x.size();
  const double* a = x.data();
  double* b = y.data();
  for (std::size_t i = 0; i < n; ++i) b[i] += alpha * a[i];
}

void xpay(std::span<const double> x, double alpha, std::span<double> y) {
  FEM2_CHECK(x.size() == y.size());
  const std::size_t n = x.size();
  const double* a = x.data();
  double* b = y.data();
  for (std::size_t i = 0; i < n; ++i) b[i] = a[i] + alpha * b[i];
}

void scale(double alpha, std::span<double> x) {
  for (double& v : x) v *= alpha;
}

void hadamard(std::span<const double> x, std::span<const double> y,
              std::span<double> z) {
  FEM2_CHECK(x.size() == y.size() && x.size() == z.size());
  const std::size_t n = x.size();
  const double* a = x.data();
  const double* b = y.data();
  double* c = z.data();
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] * b[i];
}

double norm2(std::span<const double> x) { return std::sqrt(dot(x, x)); }

double norm_inf(std::span<const double> x) {
  double m = 0.0;
  for (double v : x) m = std::max(m, std::abs(v));
  return m;
}

Vector subtract(std::span<const double> x, std::span<const double> y) {
  FEM2_CHECK(x.size() == y.size());
  Vector z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] - y[i];
  return z;
}

Vector add(std::span<const double> x, std::span<const double> y) {
  FEM2_CHECK(x.size() == y.size());
  Vector z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] + y[i];
  return z;
}

void spmv_rows(std::span<const std::size_t> row_ptr,
               std::span<const std::size_t> col_idx,
               std::span<const double> values, std::span<const double> x,
               std::span<double> y) {
  const std::size_t rows = y.size();
  FEM2_CHECK(row_ptr.size() == rows + 1);
  const std::size_t* cols = col_idx.data();
  const double* vals = values.data();
  const double* xv = x.data();
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t begin = row_ptr[r];
    const std::size_t end = row_ptr[r + 1];
    // Two accumulators over the row: short FEM rows (~9-18 nnz) still
    // benefit, long rows pipeline the gather + fma.
    double acc0 = 0.0, acc1 = 0.0;
    std::size_t k = begin;
    for (; k + 2 <= end; k += 2) {
      acc0 += vals[k] * xv[cols[k]];
      acc1 += vals[k + 1] * xv[cols[k + 1]];
    }
    if (k < end) acc0 += vals[k] * xv[cols[k]];
    y[r] = acc0 + acc1;
  }
}

}  // namespace fem2::la
