// Dense matrices, row-major, with the direct factorizations the FEM
// substrate needs: LU with partial pivoting (general) and Cholesky (SPD).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/vec_ops.hpp"
#include "support/check.hpp"

namespace fem2::la {

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  // Inline: element-matrix loops in fem read one entry per call.
  double& operator()(std::size_t r, std::size_t c) {
    FEM2_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    FEM2_CHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  std::span<const double> data() const { return data_; }

  DenseMatrix transpose() const;

  Vector multiply(std::span<const double> x) const;         ///< A x
  DenseMatrix multiply(const DenseMatrix& other) const;     ///< A B

  void add_scaled(const DenseMatrix& other, double alpha);  ///< A += αB

  double max_abs() const;

  bool is_symmetric(double tol = 1e-12) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// LU factorization with partial pivoting.  Throws support::Error on a
/// numerically singular matrix.
class LuFactorization {
 public:
  explicit LuFactorization(DenseMatrix a);

  Vector solve(std::span<const double> b) const;
  double determinant() const;
  std::size_t size() const { return lu_.rows(); }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
};

/// Cholesky factorization A = L Lᵀ for symmetric positive-definite A.
/// Throws support::Error if the matrix is not positive definite.
class CholeskyFactorization {
 public:
  explicit CholeskyFactorization(const DenseMatrix& a);

  Vector solve(std::span<const double> b) const;
  std::size_t size() const { return l_.rows(); }
  const DenseMatrix& lower() const { return l_; }

 private:
  DenseMatrix l_;
};

}  // namespace fem2::la
