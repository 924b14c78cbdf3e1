// Property tests for the CSR sparse layer: SpMV must agree with the dense
// reference on randomized (seeded, deterministic) matrices, including
// empty rows, duplicate-entry assembly, and 1×1/rectangular edge cases.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "la/dense.hpp"
#include "la/sparse.hpp"
#include "la/vec_ops.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace fem2::la {
namespace {

struct Shape {
  std::size_t rows;
  std::size_t cols;
};

const Shape kShapes[] = {{1, 1}, {1, 7}, {7, 1}, {3, 7},
                         {7, 3}, {16, 16}, {33, 9}};

/// Random sparse matrix with ~density fill, built twice: dense reference
/// by accumulation and CSR via TripletBuilder.  Low densities leave some
/// rows empty; duplicate triplets (when requested) exercise the
/// duplicate-summing path.
struct RandomSparse {
  DenseMatrix dense;
  CsrMatrix csr;
};

RandomSparse random_sparse(Shape shape, double density, std::uint64_t seed,
                           bool with_duplicates = false) {
  support::Rng rng(seed);
  RandomSparse out{DenseMatrix(shape.rows, shape.cols),
                   CsrMatrix()};
  TripletBuilder builder(shape.rows, shape.cols);
  const auto entries = static_cast<std::size_t>(
      density * static_cast<double>(shape.rows * shape.cols)) + 1;
  for (std::size_t e = 0; e < entries; ++e) {
    const auto r = static_cast<std::size_t>(rng.next_below(shape.rows));
    const auto c = static_cast<std::size_t>(rng.next_below(shape.cols));
    const double v = rng.uniform(-2.0, 2.0);
    out.dense(r, c) += v;
    builder.add(r, c, v);
    if (with_duplicates && rng.uniform() < 0.5) {
      const double w = rng.uniform(-1.0, 1.0);
      out.dense(r, c) += w;
      builder.add(r, c, w);
    }
  }
  out.csr = builder.build();
  return out;
}

Vector random_vector(std::size_t n, support::Rng& rng) {
  Vector x(n);
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

TEST(CsrProperty, SpmvMatchesDense) {
  for (const Shape shape : kShapes) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      for (const double density : {0.05, 0.3, 0.9}) {
        const auto m = random_sparse(shape, density, seed * 977);
        support::Rng rng(seed);
        const Vector x = random_vector(shape.cols, rng);
        const Vector ys = m.csr.multiply(x);
        const Vector yd = m.dense.multiply(x);
        ASSERT_EQ(ys.size(), yd.size());
        for (std::size_t i = 0; i < ys.size(); ++i)
          EXPECT_NEAR(ys[i], yd[i], 1e-12)
              << shape.rows << "x" << shape.cols << " seed " << seed;
      }
    }
  }
}

TEST(CsrProperty, DuplicateEntryAssemblySums) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto m = random_sparse({9, 9}, 0.5, seed * 313, true);
    for (std::size_t r = 0; r < 9; ++r)
      for (std::size_t c = 0; c < 9; ++c)
        EXPECT_NEAR(m.csr.value_at(r, c), m.dense(r, c), 1e-12);
  }
}

TEST(CsrProperty, EmptyRowsAndColumns) {
  // Only row 2 / col 3 populated: every other row is empty.
  TripletBuilder b(5, 6);
  b.add(2, 3, 4.5);
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.nonzeros(), 1u);
  const Vector y = m.multiply(Vector(6, 1.0));
  EXPECT_EQ(y, (Vector{0.0, 0.0, 4.5, 0.0, 0.0}));
  // Pattern row_ptr reflects the empty rows.
  EXPECT_EQ(m.row_ptr()[0], 0u);
  EXPECT_EQ(m.row_ptr()[2], 0u);
  EXPECT_EQ(m.row_ptr()[3], 1u);
  EXPECT_EQ(m.row_ptr()[5], 1u);
}

TEST(CsrProperty, OneByOne) {
  TripletBuilder b(1, 1);
  b.add(0, 0, 3.0);
  const CsrMatrix m = b.build();
  EXPECT_EQ(m.multiply(Vector{2.0}), (Vector{6.0}));
}

TEST(SparsityPattern, FromPairsDeduplicatesAndFinds) {
  std::vector<std::pair<std::size_t, std::size_t>> pairs = {
      {1, 2}, {0, 0}, {1, 2}, {2, 1}, {1, 0}};
  const SparsityPattern p = SparsityPattern::from_pairs(3, 3, pairs);
  EXPECT_EQ(p.nonzeros(), 4u);
  EXPECT_NE(p.find(0, 0), SparsityPattern::npos);
  EXPECT_NE(p.find(1, 0), SparsityPattern::npos);
  EXPECT_NE(p.find(1, 2), SparsityPattern::npos);
  EXPECT_EQ(p.find(0, 1), SparsityPattern::npos);
  EXPECT_EQ(p.find(2, 2), SparsityPattern::npos);
}

TEST(VecOpsKernels, XpayAndHadamard) {
  Vector x{1.0, 2.0, 3.0};
  Vector y{10.0, 20.0, 30.0};
  xpay(x, 0.5, y);  // y = x + 0.5 y
  EXPECT_EQ(y, (Vector{6.0, 12.0, 18.0}));

  Vector z(3, 0.0);
  hadamard(x, y, z);
  EXPECT_EQ(z, (Vector{6.0, 24.0, 54.0}));
}

TEST(VecOpsKernels, DotIsDeterministicAcrossCalls) {
  support::Rng rng(99);
  const Vector a = random_vector(1001, rng);
  const Vector b = random_vector(1001, rng);
  const double d1 = dot(a, b);
  const double d2 = dot(a, b);
  EXPECT_EQ(d1, d2);
  // And consistent with a plain reference sum to rounding accuracy.
  double ref = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) ref += a[i] * b[i];
  EXPECT_NEAR(d1, ref, 1e-10 * std::abs(ref) + 1e-12);
}

}  // namespace
}  // namespace fem2::la
