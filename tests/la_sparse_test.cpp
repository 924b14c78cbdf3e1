// Property tests for the CSR sparse layer: SpMV, transpose-SpMV, and
// triangular ops must agree with the dense reference on randomized
// (seeded, deterministic) matrices, including empty rows, duplicate-entry
// assembly, and 1×1/rectangular edge cases.
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

TEST(CsrProperty, TransposeSpmvMatchesDense) {
  for (const Shape shape : kShapes) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto m = random_sparse(shape, 0.4, seed * 1151);
      support::Rng rng(seed + 17);
      const Vector x = random_vector(shape.rows, rng);
      const Vector ys = m.csr.multiply_transpose(x);
      const Vector yd = m.dense.multiply_transpose(x);
      ASSERT_EQ(ys.size(), yd.size());
      for (std::size_t i = 0; i < ys.size(); ++i)
        EXPECT_NEAR(ys[i], yd[i], 1e-12);
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
  const Vector yt = m.multiply_transpose(Vector(5, 2.0));
  EXPECT_DOUBLE_EQ(yt[3], 9.0);
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
  EXPECT_EQ(m.multiply_transpose(Vector{2.0}), (Vector{6.0}));
  EXPECT_EQ(lower_triangular_solve(m, Vector{6.0}), (Vector{2.0}));
  EXPECT_EQ(upper_triangular_solve(m, Vector{6.0}), (Vector{2.0}));
}

/// Triangular solves agree with the dense reference: build L (or U) from a
/// diagonally-shifted random square matrix, compute b = T·x_ref densely,
/// solve, compare.
TEST(CsrProperty, TriangularSolvesMatchDense) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t n = 11;
    const auto m = random_sparse({n, n}, 0.4, seed * 421);
    support::Rng rng(seed + 99);
    const Vector x_ref = random_vector(n, rng);

    for (const bool lower : {true, false}) {
      DenseMatrix t(n, n);
      TripletBuilder tb(n, n);
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          const bool keep = lower ? c < r : c > r;
          if (keep && m.dense(r, c) != 0.0) {
            t(r, c) = m.dense(r, c);
            tb.add(r, c, m.dense(r, c));
          }
        }
        t(r, r) = static_cast<double>(n);  // safely nonsingular diagonal
        tb.add(r, r, static_cast<double>(n));
      }
      const CsrMatrix tri = tb.build();
      const Vector b = t.multiply(x_ref);
      const Vector x =
          lower ? lower_triangular_solve(tri, b) : upper_triangular_solve(tri, b);
      for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-10);
    }
  }
}

/// The triangular solves ignore entries on the wrong side of the diagonal,
/// so passing the full matrix uses only its lower/upper part.
TEST(CsrProperty, TriangularSolveIgnoresOtherTriangle) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 2.0);
  b.add(0, 1, 7.0);  // ignored by lower solve
  b.add(1, 0, 1.0);
  b.add(1, 1, 4.0);
  const CsrMatrix m = b.build();
  const Vector x = lower_triangular_solve(m, Vector{2.0, 9.0});
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 2.0);
  const Vector xu = upper_triangular_solve(m, Vector{16.0, 8.0});
  EXPECT_DOUBLE_EQ(xu[1], 2.0);
  EXPECT_DOUBLE_EQ(xu[0], 1.0);
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

TEST(SparsityPattern, AssemblerMatchesTripletBuilder) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    support::Rng rng(seed * 733);
    const std::size_t n = 10;
    std::vector<Triplet> triplets;
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t e = 0; e < 40; ++e) {
      const auto r = static_cast<std::size_t>(rng.next_below(n));
      const auto c = static_cast<std::size_t>(rng.next_below(n));
      triplets.push_back({r, c, rng.uniform(-1.0, 1.0)});
      pairs.emplace_back(r, c);
    }

    TripletBuilder builder(n, n);
    for (const auto& t : triplets) builder.add(t.row, t.col, t.value);
    const CsrMatrix reference = builder.build();

    auto pattern = std::make_shared<SparsityPattern>(
        SparsityPattern::from_pairs(n, n, pairs));
    CsrAssembler assembler(pattern);
    for (const auto& t : triplets) assembler.add(t.row, t.col, t.value);
    const CsrMatrix assembled = assembler.matrix();

    // Same values everywhere (the assembler keeps structural entries that
    // TripletBuilder would drop if they summed to zero — compare values).
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        EXPECT_NEAR(assembled.value_at(r, c), reference.value_at(r, c), 1e-13);

    // Numeric refill over the same pattern: reset + scaled re-add.
    assembler.reset();
    for (const auto& t : triplets) assembler.add(t.row, t.col, 2.0 * t.value);
    const CsrMatrix doubled = assembler.matrix();
    EXPECT_EQ(doubled.pattern_ptr().get(), assembled.pattern_ptr().get());
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t c = 0; c < n; ++c)
        EXPECT_NEAR(doubled.value_at(r, c), 2.0 * assembled.value_at(r, c),
                    1e-13);
  }
}

TEST(SparsityPattern, AddAtScattersByOffset) {
  auto pattern = std::make_shared<SparsityPattern>(SparsityPattern::from_pairs(
      2, 2, {{0, 0}, {0, 1}, {1, 1}}));
  CsrAssembler assembler(pattern);
  assembler.add_at(pattern->find(0, 1), 5.0);
  assembler.add_at(pattern->find(0, 1), 2.5);
  assembler.add_at(pattern->find(1, 1), 1.0);
  const CsrMatrix m = assembler.matrix();
  EXPECT_DOUBLE_EQ(m.value_at(0, 1), 7.5);
  EXPECT_DOUBLE_EQ(m.value_at(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(m.value_at(0, 0), 0.0);  // structural zero retained
  EXPECT_EQ(m.nonzeros(), 3u);
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
