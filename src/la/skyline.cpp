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
  //   L(j,i) = (A(i,j) - Σ_k L(i,k) L(j,k)) / L(i,i),  k in overlap
  // L(i,k) is entry (k, i) of the stored upper profile, so both factors
  // are unit-stride walks down columns i and j.
  //
  // Row i's sum needs L(j,k) for every k < i, so one row at a time a
  // column is one chain of dependent subtractions and divisions.  Rows
  // i..i+3 < j run as a block instead: each first takes its own terms
  // below kc, the first k all four share; one walk down column j then
  // feeds four independent sums; last, row i+r adds its k = i..i+r-1
  // terms as L(j, i..i+2) come out.  Each sum still runs in ascending k,
  // so every bit is the row-at-a-time loop's.
  const std::size_t* first = first_row_.data();
  for (std::size_t j = 0; j < n; ++j) {
    double* cj = column(j);
    std::size_t i = first[j];
    for (; i + 4 <= j; i += 4) {
      const double* c0 = column(i);
      const double* c1 = column(i + 1);
      const double* c2 = column(i + 2);
      const double* c3 = column(i + 3);
      // Row i+r's terms start at k = b_r; first[j] <= i, so b_r <= i
      // unless row i+r's own profile starts inside the block.
      const std::size_t b0 = std::max(first[j], first[i]);
      const std::size_t b1 = std::max(first[j], first[i + 1]);
      const std::size_t b2 = std::max(first[j], first[i + 2]);
      const std::size_t b3 = std::max(first[j], first[i + 3]);
      const std::size_t kc = std::min(i, std::max({b0, b1, b2, b3}));
      double s0 = cj[i], s1 = cj[i + 1], s2 = cj[i + 2], s3 = cj[i + 3];
      for (std::size_t k = b0; k < kc; ++k) s0 -= c0[k] * cj[k];
      for (std::size_t k = b1; k < kc; ++k) s1 -= c1[k] * cj[k];
      for (std::size_t k = b2; k < kc; ++k) s2 -= c2[k] * cj[k];
      for (std::size_t k = b3; k < kc; ++k) s3 -= c3[k] * cj[k];
      for (std::size_t k = kc; k < i; ++k) {
        const double ljk = cj[k];
        s0 -= c0[k] * ljk;
        s1 -= c1[k] * ljk;
        s2 -= c2[k] * ljk;
        s3 -= c3[k] * ljk;
      }
      cj[i] = s0 / c0[i];
      if (b1 <= i) s1 -= c1[i] * cj[i];
      cj[i + 1] = s1 / c1[i + 1];
      if (b2 <= i) s2 -= c2[i] * cj[i];
      if (b2 <= i + 1) s2 -= c2[i + 1] * cj[i + 1];
      cj[i + 2] = s2 / c2[i + 2];
      if (b3 <= i) s3 -= c3[i] * cj[i];
      if (b3 <= i + 1) s3 -= c3[i + 1] * cj[i + 1];
      if (b3 <= i + 2) s3 -= c3[i + 2] * cj[i + 2];
      cj[i + 3] = s3 / c3[i + 3];
    }
    // The rows left over, then the diagonal.
    for (; i <= j; ++i) {
      const double* ci = column(i);
      double sum = cj[i];
      for (std::size_t k = std::max(first[j], first[i]); k < i; ++k)
        sum -= ci[k] * cj[k];
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
