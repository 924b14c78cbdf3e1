#include "la/dense.hpp"

#include <cmath>
#include <string>

#include "support/check.hpp"

namespace fem2::la {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::span<double> DenseMatrix::row(std::size_t r) {
  FEM2_CHECK(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

std::span<const double> DenseMatrix::row(std::size_t r) const {
  FEM2_CHECK(r < rows_);
  return {data_.data() + r * cols_, cols_};
}

DenseMatrix DenseMatrix::transpose() const {
  DenseMatrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Vector DenseMatrix::multiply(std::span<const double> x) const {
  FEM2_CHECK(x.size() == cols_);
  Vector y(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) y[r] = dot(row(r), x);
  return y;
}

DenseMatrix DenseMatrix::multiply(const DenseMatrix& other) const {
  FEM2_CHECK(cols_ == other.rows_);
  DenseMatrix out(rows_, other.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      axpy(a, other.row(k), out.row(r));
    }
  }
  return out;
}

void DenseMatrix::add_scaled(const DenseMatrix& other, double alpha) {
  FEM2_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] += alpha * other.data_[i];
}

double DenseMatrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

bool DenseMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r + 1; c < cols_; ++c)
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

LuFactorization::LuFactorization(DenseMatrix a) : lu_(std::move(a)) {
  FEM2_CHECK_MSG(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivoting: largest magnitude in column k at/below the diagonal.
    std::size_t pivot = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double v = std::abs(lu_(r, k));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-300) {
      throw support::Error("LU factorization: matrix is singular at pivot " +
                           std::to_string(k));
    }
    if (pivot != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu_(k, c), lu_(pivot, c));
      std::swap(perm_[k], perm_[pivot]);
      perm_sign_ = -perm_sign_;
    }
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) / lu_(k, k);
      lu_(r, k) = factor;
      for (std::size_t c = k + 1; c < n; ++c)
        lu_(r, c) -= factor * lu_(k, c);
    }
  }
}

Vector LuFactorization::solve(std::span<const double> b) const {
  const std::size_t n = lu_.rows();
  FEM2_CHECK(b.size() == n);
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm_[i]];
  // Forward substitution with unit lower triangle.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) y[i] -= lu_(i, j) * y[j];
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) y[i] -= lu_(i, j) * y[j];
    y[i] /= lu_(i, i);
  }
  return y;
}

double LuFactorization::determinant() const {
  double det = perm_sign_;
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

CholeskyFactorization::CholeskyFactorization(const DenseMatrix& a) {
  FEM2_CHECK_MSG(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const std::size_t n = a.rows();
  l_ = DenseMatrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = a(i, j);
      for (std::size_t k = 0; k < j; ++k) sum -= l_(i, k) * l_(j, k);
      if (i == j) {
        if (sum <= 0.0) {
          throw support::Error(
              "Cholesky factorization: matrix is not positive definite "
              "(diagonal " +
              std::to_string(i) + ")");
        }
        l_(i, j) = std::sqrt(sum);
      } else {
        l_(i, j) = sum / l_(j, j);
      }
    }
  }
}

Vector CholeskyFactorization::solve(std::span<const double> b) const {
  const std::size_t n = l_.rows();
  FEM2_CHECK(b.size() == n);
  Vector y(b.begin(), b.end());
  // L z = b
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) y[i] -= l_(i, j) * y[j];
    y[i] /= l_(i, i);
  }
  // Lᵀ x = z
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) y[i] -= l_(j, i) * y[j];
    y[i] /= l_(i, i);
  }
  return y;
}

}  // namespace fem2::la
