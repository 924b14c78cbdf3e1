#include "la/sparse.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"

namespace fem2::la {

SparsityPattern::SparsityPattern(std::size_t rows, std::size_t cols,
                                 std::vector<std::size_t> row_ptr,
                                 std::vector<std::size_t> col_idx)
    : rows_(rows),
      cols_(cols),
      row_ptr_(std::move(row_ptr)),
      col_idx_(std::move(col_idx)) {
  FEM2_CHECK(row_ptr_.size() == rows_ + 1);
  FEM2_CHECK(row_ptr_.back() == col_idx_.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    FEM2_CHECK(row_ptr_[r] <= row_ptr_[r + 1]);
    for (std::size_t k = row_ptr_[r]; k + 1 < row_ptr_[r + 1]; ++k)
      FEM2_CHECK(col_idx_[k] < col_idx_[k + 1]);
    if (row_ptr_[r] < row_ptr_[r + 1])
      FEM2_CHECK(col_idx_[row_ptr_[r + 1] - 1] < cols_);
  }
}

SparsityPattern SparsityPattern::from_pairs(
    std::size_t rows, std::size_t cols,
    std::vector<std::pair<std::size_t, std::size_t>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<std::size_t> row_ptr(rows + 1, 0);
  std::vector<std::size_t> col_idx;
  col_idx.reserve(pairs.size());
  std::size_t i = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    row_ptr[r] = col_idx.size();
    while (i < pairs.size() && pairs[i].first == r) {
      FEM2_CHECK(pairs[i].second < cols);
      col_idx.push_back(pairs[i].second);
      ++i;
    }
  }
  FEM2_CHECK(i == pairs.size());  // no row index >= rows
  row_ptr[rows] = col_idx.size();
  return SparsityPattern(rows, cols, std::move(row_ptr), std::move(col_idx));
}

std::size_t SparsityPattern::find(std::size_t row, std::size_t col) const {
  FEM2_CHECK(row < rows_ && col < cols_);
  const auto begin =
      col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto end =
      col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(begin, end, col);
  if (it == end || *it != col) return npos;
  return static_cast<std::size_t>(it - col_idx_.begin());
}

std::size_t SparsityPattern::storage_bytes() const {
  return col_idx_.size() * sizeof(std::size_t) +
         row_ptr_.size() * sizeof(std::size_t);
}

TripletBuilder::TripletBuilder(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols) {}

void TripletBuilder::add(std::size_t row, std::size_t col, double value) {
  FEM2_CHECK(row < rows_ && col < cols_);
  if (value == 0.0) return;
  triplets_.push_back({row, col, value});
}

CsrMatrix TripletBuilder::build() const {
  std::vector<Triplet> sorted = triplets_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });

  std::vector<std::size_t> row_ptr(rows_ + 1, 0);
  std::vector<std::size_t> col_idx;
  std::vector<double> values;
  col_idx.reserve(sorted.size());
  values.reserve(sorted.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < rows_; ++r) {
    row_ptr[r] = values.size();
    while (i < sorted.size() && sorted[i].row == r) {
      const std::size_t c = sorted[i].col;
      double sum = 0.0;
      while (i < sorted.size() && sorted[i].row == r && sorted[i].col == c) {
        sum += sorted[i].value;
        ++i;
      }
      if (sum != 0.0) {
        col_idx.push_back(c);
        values.push_back(sum);
      }
    }
  }
  row_ptr[rows_] = values.size();
  return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

CsrMatrix::CsrMatrix(std::size_t rows, std::size_t cols,
                     std::vector<std::size_t> row_ptr,
                     std::vector<std::size_t> col_idx,
                     std::vector<double> values)
    : pattern_(std::make_shared<SparsityPattern>(
          rows, cols, std::move(row_ptr), std::move(col_idx))),
      values_(std::move(values)) {
  FEM2_CHECK(pattern_->nonzeros() == values_.size());
}

CsrMatrix::CsrMatrix(std::shared_ptr<const SparsityPattern> pattern,
                     std::vector<double> values)
    : pattern_(std::move(pattern)), values_(std::move(values)) {
  FEM2_CHECK(pattern_ != nullptr);
  FEM2_CHECK(pattern_->nonzeros() == values_.size());
}

Vector CsrMatrix::multiply(std::span<const double> x) const {
  Vector y(rows(), 0.0);
  multiply_rows(x, y);
  return y;
}

void CsrMatrix::multiply_rows(std::span<const double> x,
                              std::span<double> y) const {
  FEM2_CHECK(x.size() == cols());
  FEM2_CHECK(y.size() == rows());
  spmv_rows(pattern_->row_ptr(), pattern_->col_idx(), values_, x, y);
}

double CsrMatrix::value_at(std::size_t row, std::size_t col) const {
  const std::size_t k = pattern_->find(row, col);
  return k == SparsityPattern::npos ? 0.0 : values_[k];
}

Vector CsrMatrix::diagonal() const {
  const std::size_t n = std::min(rows(), cols());
  Vector d(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) d[i] = value_at(i, i);
  return d;
}

DenseMatrix CsrMatrix::to_dense() const {
  const auto row_ptr = pattern_->row_ptr();
  const auto col_idx = pattern_->col_idx();
  DenseMatrix m(rows(), cols());
  for (std::size_t r = 0; r < rows(); ++r)
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      m(r, col_idx[k]) = values_[k];
  return m;
}

void CsrMatrix::row(std::size_t r, std::span<const std::size_t>& cols,
                    std::span<const double>& vals) const {
  FEM2_CHECK(r < rows());
  const auto row_ptr = pattern_->row_ptr();
  const std::size_t begin = row_ptr[r];
  const std::size_t count = row_ptr[r + 1] - begin;
  cols = pattern_->col_idx().subspan(begin, count);
  vals = {values_.data() + begin, count};
}

bool CsrMatrix::is_symmetric(double tol) const {
  if (rows() != cols()) return false;
  const auto row_ptr = pattern_->row_ptr();
  const auto col_idx = pattern_->col_idx();
  for (std::size_t r = 0; r < rows(); ++r)
    for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
      if (std::abs(values_[k] - value_at(col_idx[k], r)) > tol) return false;
  return true;
}

std::size_t CsrMatrix::storage_bytes() const {
  return values_.size() * sizeof(double) +
         (pattern_ ? pattern_->storage_bytes() : 0);
}

}  // namespace fem2::la
