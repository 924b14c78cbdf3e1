// Skyline (profile) storage and Cholesky factorization — the direct solver
// of choice in 1980s finite-element codes.  Only the entries between each
// column's first nonzero row and the diagonal are stored; fill-in during
// factorization stays inside the profile.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "la/sparse.hpp"
#include "la/vec_ops.hpp"

namespace fem2::la {

/// Symmetric positive-definite matrix in skyline (column profile) form.
class SkylineMatrix {
 public:
  /// Build from the envelope of a symmetric CSR matrix.
  static SkylineMatrix from_csr(const CsrMatrix& a);

  /// Build an empty skyline from per-column first-row indices
  /// (first_row[j] <= j; column j stores rows first_row[j]..j).
  explicit SkylineMatrix(std::vector<std::size_t> first_row);

  std::size_t size() const { return first_row_.size(); }

  /// Entry (i, j) with i <= j inside the profile.
  double& at(std::size_t i, std::size_t j);
  double value_at(std::size_t i, std::size_t j) const;  ///< 0 outside profile

  /// Stored coefficients (profile entries only).
  std::size_t profile_entries() const { return values_.size(); }
  std::size_t storage_bytes() const;

  /// In-place L Lᵀ factorization.  Throws support::Error if not SPD.
  void factorize();
  bool factorized() const { return factorized_; }

  /// Solve A x = b using the factorization (factorize() must have run).
  Vector solve(std::span<const double> b) const;

  /// Mean/max column height of the profile (bandwidth statistics).
  double mean_column_height() const;
  std::size_t max_column_height() const;

 private:
  std::size_t col_height(std::size_t j) const { return j - first_row_[j] + 1; }

  /// Column j indexed by row: column(j)[i] is entry (i, j) for
  /// first_row_[j] <= i <= j.  Every column stores its diagonal, so
  /// col_ptr_[j] >= j >= first_row_[j] and the base stays in values_.
  double* column(std::size_t j) {
    return values_.data() + (col_ptr_[j] - first_row_[j]);
  }
  const double* column(std::size_t j) const {
    return values_.data() + (col_ptr_[j] - first_row_[j]);
  }

  std::vector<std::size_t> first_row_;  ///< first stored row per column
  std::vector<std::size_t> col_ptr_;    ///< offset of column j's first entry
  std::vector<double> values_;          ///< column-major profile entries
  bool factorized_ = false;
};

}  // namespace fem2::la
