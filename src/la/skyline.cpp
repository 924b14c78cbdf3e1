#include "la/skyline.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace fem2::la {

SkylineMatrix SkylineMatrix::from_csr(const CsrMatrix& a) {
  FEM2_CHECK_MSG(a.rows() == a.cols(), "skyline requires a square matrix");
  const std::size_t n = a.rows();
  std::vector<std::size_t> first_row(n);
  for (std::size_t j = 0; j < n; ++j) first_row[j] = j;
  // The profile of column j starts at the smallest row index with a nonzero
  // in column j.  Scan CSR rows: entry (r, c) with r < c lowers column c.
  for (std::size_t r = 0; r < n; ++r) {
    std::span<const std::size_t> cols;
    std::span<const double> vals;
    a.row(r, cols, vals);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const std::size_t c = cols[k];
      if (r < c) first_row[c] = std::min(first_row[c], r);
      if (c < r) first_row[r] = std::min(first_row[r], c);
    }
  }
  SkylineMatrix s(std::move(first_row));
  for (std::size_t r = 0; r < n; ++r) {
    std::span<const std::size_t> cols;
    std::span<const double> vals;
    a.row(r, cols, vals);
    for (std::size_t k = 0; k < cols.size(); ++k) {
      if (cols[k] >= r) s.at(r, cols[k]) = vals[k];
    }
  }
  return s;
}

SkylineMatrix::SkylineMatrix(std::vector<std::size_t> first_row)
    : first_row_(std::move(first_row)) {
  const std::size_t n = first_row_.size();
  col_ptr_.resize(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    FEM2_CHECK_MSG(first_row_[j] <= j, "profile must include the diagonal");
    col_ptr_[j + 1] = col_ptr_[j] + col_height(j);
  }
  values_.assign(col_ptr_[n], 0.0);
}

double& SkylineMatrix::at(std::size_t i, std::size_t j) {
  FEM2_CHECK(j < size() && i <= j);
  FEM2_CHECK_MSG(i >= first_row_[j], "entry outside the skyline profile");
  return values_[col_ptr_[j] + (i - first_row_[j])];
}

double SkylineMatrix::value_at(std::size_t i, std::size_t j) const {
  if (i > j) std::swap(i, j);
  FEM2_CHECK(j < size());
  if (i < first_row_[j]) return 0.0;
  return values_[col_ptr_[j] + (i - first_row_[j])];
}

std::size_t SkylineMatrix::storage_bytes() const {
  return values_.size() * sizeof(double) +
         (first_row_.size() + col_ptr_.size()) * sizeof(std::size_t);
}

void SkylineMatrix::factorize() {
  FEM2_CHECK_MSG(!factorized_, "factorize called twice");
  const std::size_t n = size();
  // Column-oriented Crout/Cholesky inside the profile:
  //   L(i,j) = (A(i,j) - Σ_k L(i,k) L(j,k)) / L(j,j),  k in overlap
  // L(i,k) is entry (k, i) of the stored upper profile, so both factors
  // are unit-stride walks down columns i and j.
  for (std::size_t j = 0; j < n; ++j) {
    double* cj = column(j);
    for (std::size_t i = first_row_[j]; i <= j; ++i) {
      const double* ci = column(i);
      double sum = cj[i];
      const std::size_t k_begin = std::max(first_row_[j], first_row_[i]);
      for (std::size_t k = k_begin; k < i; ++k) sum -= ci[k] * cj[k];
      if (i == j) {
        if (sum <= 0.0) {
          throw support::Error(
              "skyline Cholesky: matrix not positive definite at column " +
              std::to_string(j));
        }
        cj[j] = std::sqrt(sum);
      } else {
        cj[i] = sum / ci[i];
      }
    }
  }
  factorized_ = true;
}

Vector SkylineMatrix::solve(std::span<const double> b) const {
  FEM2_CHECK_MSG(factorized_, "solve before factorize");
  const std::size_t n = size();
  FEM2_CHECK(b.size() == n);
  Vector y(b.begin(), b.end());
  // Forward: L z = b.  Column i of the stored upper profile holds row i
  // of L.
  for (std::size_t i = 0; i < n; ++i) {
    const double* ci = column(i);
    double yi = y[i];
    for (std::size_t k = first_row_[i]; k < i; ++k) yi -= ci[k] * y[k];
    y[i] = yi / ci[i];
  }
  // Backward: Lᵀ x = z, traversing columns right to left.
  for (std::size_t j = n; j-- > 0;) {
    const double* cj = column(j);
    const double yj = y[j] / cj[j];
    y[j] = yj;
    for (std::size_t k = first_row_[j]; k < j; ++k) y[k] -= cj[k] * yj;
  }
  return y;
}

double SkylineMatrix::mean_column_height() const {
  if (size() == 0) return 0.0;
  return static_cast<double>(values_.size()) / static_cast<double>(size());
}

std::size_t SkylineMatrix::max_column_height() const {
  std::size_t m = 0;
  for (std::size_t j = 0; j < size(); ++j) m = std::max(m, col_height(j));
  return m;
}

}  // namespace fem2::la
