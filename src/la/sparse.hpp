// Compressed sparse row storage.
//
// A CsrMatrix is numeric values over a SparsityPattern (row_ptr / col_idx)
// held by shared_ptr, so copies of a matrix copy no index data.  Two
// paths build one:
//  * fem::assemble — the pattern from the mesh's node graph first, then
//    each element contribution added at its value offset, which
//    fem::SystemScatter reads from a per-row position map filled once
//    per row (SparsityPattern::find's binary search serves single
//    lookups such as value_at).
//  * TripletBuilder — one-shot: accumulate (row, col, value) triplets
//    (duplicates sum, as element contributions do) and compress.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "la/dense.hpp"
#include "la/vec_ops.hpp"

namespace fem2::la {

/// Immutable CSR index structure: row pointers plus per-row sorted, unique
/// column indices, shared (via shared_ptr) between copies of a matrix.
class SparsityPattern {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  SparsityPattern() = default;
  /// col_idx must be sorted and unique within each row.
  SparsityPattern(std::size_t rows, std::size_t cols,
                  std::vector<std::size_t> row_ptr,
                  std::vector<std::size_t> col_idx);

  /// Build from unsorted (row, col) pairs; duplicates collapse.
  static SparsityPattern from_pairs(
      std::size_t rows, std::size_t cols,
      std::vector<std::pair<std::size_t, std::size_t>> pairs);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return col_idx_.size(); }

  std::span<const std::size_t> row_ptr() const { return row_ptr_; }
  std::span<const std::size_t> col_idx() const { return col_idx_; }

  /// Offset of (row, col) in the value array, or npos if absent.
  std::size_t find(std::size_t row, std::size_t col) const;

  std::size_t storage_bytes() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
};

struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class CsrMatrix;

class TripletBuilder {
 public:
  TripletBuilder(std::size_t rows, std::size_t cols);

  void add(std::size_t row, std::size_t col, double value);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Compress into CSR: duplicates summed, explicit zeros dropped.
  CsrMatrix build() const;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<Triplet> triplets_;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::size_t cols,
            std::vector<std::size_t> row_ptr, std::vector<std::size_t> col_idx,
            std::vector<double> values);
  /// Numeric values over a shared symbolic pattern (zero index copies).
  CsrMatrix(std::shared_ptr<const SparsityPattern> pattern,
            std::vector<double> values);

  std::size_t rows() const { return pattern_ ? pattern_->rows() : 0; }
  std::size_t cols() const { return pattern_ ? pattern_->cols() : 0; }
  std::size_t nonzeros() const { return values_.size(); }

  Vector multiply(std::span<const double> x) const;  ///< y = A x

  /// y = A x into the caller's y (y.size() == rows()), allocation-free:
  /// the kernel CG and the distributed matvec (navm) run per shard.
  void multiply_rows(std::span<const double> x, std::span<double> y) const;

  double value_at(std::size_t row, std::size_t col) const;  ///< 0 if absent

  Vector diagonal() const;

  DenseMatrix to_dense() const;

  const SparsityPattern& pattern() const { return *pattern_; }

  std::span<const std::size_t> row_ptr() const { return pattern_->row_ptr(); }
  std::span<const std::size_t> col_idx() const { return pattern_->col_idx(); }
  std::span<const double> values() const { return values_; }

  /// Nonzeros in one row as parallel spans.
  void row(std::size_t r, std::span<const std::size_t>& cols,
           std::span<const double>& vals) const;

  bool is_symmetric(double tol = 1e-12) const;

  /// Estimated bytes of storage (values + indices + row pointers).
  std::size_t storage_bytes() const;

 private:
  std::shared_ptr<const SparsityPattern> pattern_;
  std::vector<double> values_;
};

}  // namespace fem2::la
