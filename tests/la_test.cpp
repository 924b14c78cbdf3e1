#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "fem/assembly.hpp"
#include "fem/mesh.hpp"
#include "la/dense.hpp"
#include "la/iterative.hpp"
#include "la/precond.hpp"
#include "la/skyline.hpp"
#include "la/sparse.hpp"
#include "la/vec_ops.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace fem2::la {
namespace {

CsrMatrix laplacian_1d(std::size_t n) {
  TripletBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return b.build();
}

/// Random SPD matrix A = Bᵀ B + n·I (dense), also returned as CSR.
std::pair<DenseMatrix, CsrMatrix> random_spd(std::size_t n,
                                             std::uint64_t seed) {
  support::Rng rng(seed);
  DenseMatrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1, 1);
  DenseMatrix a = b.transpose().multiply(b);
  for (std::size_t i = 0; i < n; ++i) a(i, i) += static_cast<double>(n);
  TripletBuilder tb(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      if (a(r, c) != 0.0) tb.add(r, c, a(r, c));
  return {a, tb.build()};
}

TEST(VecOps, DotAxpyNorm) {
  Vector x{1, 2, 3}, y{4, 5, 6};
  EXPECT_DOUBLE_EQ(dot(x, y), 32.0);
  axpy(2.0, x, y);
  EXPECT_EQ(y, (Vector{6, 9, 12}));
  EXPECT_DOUBLE_EQ(norm2(Vector{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(norm_inf(Vector{-7, 3}), 7.0);
  EXPECT_EQ(subtract(y, x), (Vector{5, 7, 9}));
  EXPECT_EQ(add(x, x), (Vector{2, 4, 6}));
}

TEST(VecOps, LaneNormMatchesNorm2) {
  support::Rng rng(5);
  for (std::size_t n = 0; n <= 41; ++n) {
    Vector x(n);
    for (double& v : x)
      v = rng.uniform(-1.0, 1.0) * std::exp(rng.uniform(-20.0, 20.0));
    LaneNorm lanes(n);
    for (std::size_t i = 0; i < n; ++i) lanes.add(i, x[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lanes.norm()),
              std::bit_cast<std::uint64_t>(norm2(x)))
        << "n=" << n;
  }
}

TEST(Dense, MultiplyAndTranspose) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const auto y = a.multiply(Vector{1, 1, 1});
  EXPECT_EQ(y, (Vector{6, 15}));
  const auto yt = a.multiply_transpose(Vector{1, 1});
  EXPECT_EQ(yt, (Vector{5, 7, 9}));
  const auto at = a.transpose();
  EXPECT_EQ(at.rows(), 3u);
  EXPECT_DOUBLE_EQ(at(2, 1), 6.0);
  const auto prod = a.multiply(at);  // 2x2
  EXPECT_DOUBLE_EQ(prod(0, 0), 14.0);
  EXPECT_DOUBLE_EQ(prod(0, 1), 32.0);
}

TEST(Dense, LuSolvesAndDeterminant) {
  DenseMatrix a(3, 3);
  a(0, 0) = 2; a(0, 1) = 1; a(0, 2) = 1;
  a(1, 0) = 4; a(1, 1) = -6; a(1, 2) = 0;
  a(2, 0) = -2; a(2, 1) = 7; a(2, 2) = 2;
  LuFactorization lu(a);
  const auto x = lu.solve(Vector{5, -2, 9});
  const auto r = subtract(a.multiply(x), Vector{5, -2, 9});
  EXPECT_LT(norm2(r), 1e-12);
  EXPECT_NEAR(lu.determinant(), -16.0, 1e-9);
}

TEST(Dense, LuRejectsSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 4;
  EXPECT_THROW(LuFactorization{a}, support::Error);
}

TEST(Dense, CholeskyMatchesLu) {
  const auto [a, csr] = random_spd(12, 17);
  (void)csr;
  Vector rhs(12);
  for (std::size_t i = 0; i < rhs.size(); ++i)
    rhs[i] = static_cast<double>(i) - 5.0;
  CholeskyFactorization chol(a);
  LuFactorization lu(a);
  const auto x1 = chol.solve(rhs);
  const auto x2 = lu.solve(rhs);
  for (std::size_t i = 0; i < rhs.size(); ++i)
    EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(Dense, CholeskyRejectsIndefinite) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2;
  a(1, 0) = 2; a(1, 1) = 1;  // eigenvalues 3, -1
  EXPECT_THROW(CholeskyFactorization{a}, support::Error);
}

TEST(Sparse, BuilderSumsDuplicatesAndDropsZeros) {
  TripletBuilder b(2, 2);
  b.add(0, 0, 1.0);
  b.add(0, 0, 2.0);
  b.add(1, 0, 5.0);
  b.add(1, 0, -5.0);
  b.add(0, 1, 0.0);  // dropped at insert
  const auto m = b.build();
  EXPECT_EQ(m.nonzeros(), 1u);  // the (1,0) pair cancelled
  EXPECT_DOUBLE_EQ(m.value_at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.value_at(1, 0), 0.0);
}

TEST(Sparse, MatvecMatchesDense) {
  const auto [dense, csr] = random_spd(15, 23);
  Vector x(15);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = std::sin(double(i));
  const auto y1 = csr.multiply(x);
  const auto y2 = dense.multiply(x);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-10);
}

TEST(Sparse, MultiplyRowsSubrange) {
  const auto a = laplacian_1d(10);
  Vector x(10, 1.0);
  Vector y(4, 0.0);
  a.multiply_rows(x, 3, 7, y);
  const auto full = a.multiply(x);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], full[3 + i]);
}

TEST(Sparse, DiagonalAndSymmetry) {
  const auto a = laplacian_1d(6);
  const auto d = a.diagonal();
  for (const double v : d) EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_TRUE(a.is_symmetric());
}

TEST(Skyline, MatchesDenseCholesky) {
  const auto a = laplacian_1d(20);
  Vector rhs(20, 1.0);
  auto sky = SkylineMatrix::from_csr(a);
  EXPECT_EQ(sky.size(), 20u);
  sky.factorize();
  const auto x1 = sky.solve(rhs);
  CholeskyFactorization chol(a.to_dense());
  const auto x2 = chol.solve(rhs);
  for (std::size_t i = 0; i < 20; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(Skyline, RandomSpdProfileSolve) {
  const auto [dense, csr] = random_spd(18, 31);
  (void)dense;
  Vector rhs(18);
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = double(i % 5) - 2.0;
  auto sky = SkylineMatrix::from_csr(csr);
  sky.factorize();
  const auto x = sky.solve(rhs);
  EXPECT_LT(relative_residual(csr, x, rhs), 1e-10);
}

TEST(Skyline, StorageSmallerThanDenseForBanded) {
  const auto a = laplacian_1d(100);
  const auto sky = SkylineMatrix::from_csr(a);
  EXPECT_LT(sky.storage_bytes(), 100 * 100 * sizeof(double) / 10);
  EXPECT_EQ(sky.max_column_height(), 2u);
}

// --- parameterized solver agreement sweep ---------------------------------

struct IterativeCase {
  const char* name;
  std::function<SolveResult(const CsrMatrix&, std::span<const double>,
                            const SolveOptions&)>
      run;
};

class IterativeSolvers : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IterativeSolvers, AllConvergeOnRandomSpd) {
  const auto seed = GetParam();
  const auto [dense, csr] = random_spd(24, seed);
  (void)dense;
  Vector rhs(24);
  support::Rng rng(seed ^ 0xabcd);
  for (auto& v : rhs) v = rng.uniform(-2, 2);

  SolveOptions options;
  options.tolerance = 1e-11;
  options.max_iterations = 50'000;

  const auto reference = CholeskyFactorization(csr.to_dense()).solve(rhs);

  for (const auto& solver : std::vector<IterativeCase>{
           {"cg", [](const auto& a, auto b, const auto& o) {
              return conjugate_gradient(a, b, o);
            }},
           {"pcg", [](const auto& a, auto b, const auto& o) {
              auto opts = o;
              opts.jacobi_preconditioner = true;
              return conjugate_gradient(a, b, opts);
            }},
           {"jacobi", [](const auto& a, auto b, const auto& o) {
              return jacobi(a, b, o);
            }},
           {"gs", [](const auto& a, auto b, const auto& o) {
              return sor(a, b, o);
            }},
           {"sor", [](const auto& a, auto b, const auto& o) {
              auto opts = o;
              opts.sor_omega = 1.3;
              return sor(a, b, opts);
            }}}) {
    const auto result = solver.run(csr, rhs, options);
    EXPECT_TRUE(result.report.converged) << solver.name << ": "
                                         << result.report.to_string();
    for (std::size_t i = 0; i < rhs.size(); ++i)
      EXPECT_NEAR(result.x[i], reference[i], 1e-6) << solver.name;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IterativeSolvers,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST(Iterative, CgIterationCountScalesWithConditioning) {
  // 1-D Laplacian: CG needs more iterations as n grows.
  SolveOptions options;
  options.tolerance = 1e-10;
  Vector small_rhs(16, 1.0), large_rhs(256, 1.0);
  const auto small = conjugate_gradient(laplacian_1d(16), small_rhs, options);
  const auto large = conjugate_gradient(laplacian_1d(256), large_rhs, options);
  ASSERT_TRUE(small.report.converged);
  ASSERT_TRUE(large.report.converged);
  EXPECT_LT(small.report.iterations, large.report.iterations);
}

TEST(Iterative, ZeroRhsConvergesImmediately) {
  const auto a = laplacian_1d(8);
  Vector zero(8, 0.0);
  for (const auto& result :
       {conjugate_gradient(a, zero), jacobi(a, zero), sor(a, zero)}) {
    EXPECT_TRUE(result.report.converged);
    EXPECT_EQ(result.report.iterations, 0u);
    EXPECT_EQ(norm2(result.x), 0.0);
  }
}

TEST(Iterative, ReportsNonConvergence) {
  SolveOptions options;
  options.tolerance = 1e-14;
  options.max_iterations = 2;
  Vector rhs(64, 1.0);
  const auto result = conjugate_gradient(laplacian_1d(64), rhs, options);
  EXPECT_FALSE(result.report.converged);
  EXPECT_EQ(result.report.iterations, 2u);
}

// --- bit-identity with the previous kernels --------------------------------
//
// The solvers below are test-local copies of the kernels as they were
// before the one-pass SOR, buffer-reusing CG/Jacobi and pointer-walk
// skyline: a residual pass before every sweep, allocating temporaries,
// and Crout through the bounds-checked value_at/at.  The library must
// reproduce them bit for bit.
namespace before {

SolveResult conjugate_gradient(const CsrMatrix& a, std::span<const double> b,
                               const SolveOptions& options) {
  const std::size_t n = a.rows();
  SolveResult out;
  out.x.assign(n, 0.0);
  std::unique_ptr<JacobiPreconditioner> owned_jacobi;
  const Preconditioner* precond = options.preconditioner;
  if (precond == nullptr && options.jacobi_preconditioner) {
    owned_jacobi = std::make_unique<JacobiPreconditioner>(a);
    precond = owned_jacobi.get();
  }
  out.report.method = precond ? "pcg-" + precond->name() : "cg";
  auto precondition = [&](const Vector& r) {
    if (precond == nullptr) return r;
    Vector z(r.size());
    precond->apply(r, z);
    return z;
  };
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }
  Vector r(b.begin(), b.end());
  Vector z = precondition(r);
  Vector p = z;
  double rz = dot(r, z);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const double rn = norm2(r) / bnorm;
    out.report.iterations = it;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.report.converged = true;
      return out;
    }
    Vector ap = a.multiply(p);
    const double pap = dot(p, ap);
    if (pap <= 0.0) return out;
    const double alpha = rz / pap;
    axpy(alpha, p, out.x);
    axpy(-alpha, ap, r);
    z = precondition(r);
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    xpay(z, beta, p);
  }
  out.report.iterations = options.max_iterations;
  out.report.residual_norm = norm2(r) / bnorm;
  out.report.converged = out.report.residual_norm <= options.tolerance;
  return out;
}

SolveResult jacobi(const CsrMatrix& a, std::span<const double> b,
                   const SolveOptions& options,
                   std::vector<double>* residuals = nullptr) {
  const std::size_t n = a.rows();
  SolveResult out;
  out.report.method = "jacobi";
  out.x.assign(n, 0.0);
  const Vector diag = a.diagonal();
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }
  Vector next(n);
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    Vector ax = a.multiply(out.x);
    const double rn = norm2(subtract(b, ax)) / bnorm;
    if (residuals != nullptr) residuals->push_back(rn);
    out.report.iterations = it;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.report.converged = true;
      return out;
    }
    for (std::size_t i = 0; i < n; ++i)
      next[i] = out.x[i] + (b[i] - ax[i]) / diag[i];
    out.x.swap(next);
  }
  out.report.iterations = options.max_iterations;
  out.report.residual_norm = relative_residual(a, out.x, b);
  out.report.converged = out.report.residual_norm <= options.tolerance;
  return out;
}

SolveResult sor(const CsrMatrix& a, std::span<const double> b,
                const SolveOptions& options,
                std::vector<double>* residuals = nullptr) {
  const std::size_t n = a.rows();
  SolveResult out;
  out.report.method = options.sor_omega == 1.0 ? "gauss-seidel" : "sor";
  out.x.assign(n, 0.0);
  const double bnorm = norm2(b);
  if (bnorm == 0.0) {
    out.report.converged = true;
    return out;
  }
  for (std::size_t it = 0; it < options.max_iterations; ++it) {
    const double rn = relative_residual(a, out.x, b);
    if (residuals != nullptr) residuals->push_back(rn);
    out.report.iterations = it;
    out.report.residual_norm = rn;
    if (rn <= options.tolerance) {
      out.report.converged = true;
      return out;
    }
    for (std::size_t i = 0; i < n; ++i) {
      std::span<const std::size_t> cols;
      std::span<const double> vals;
      a.row(i, cols, vals);
      double sigma = 0.0;
      double diag = 0.0;
      for (std::size_t k = 0; k < cols.size(); ++k) {
        if (cols[k] == i) {
          diag = vals[k];
        } else {
          sigma += vals[k] * out.x[cols[k]];
        }
      }
      const double gs = (b[i] - sigma) / diag;
      out.x[i] += options.sor_omega * (gs - out.x[i]);
    }
  }
  out.report.iterations = options.max_iterations;
  out.report.residual_norm = relative_residual(a, out.x, b);
  out.report.converged = out.report.residual_norm <= options.tolerance;
  return out;
}

/// Skyline envelope of a symmetric CSR matrix, as from_csr computes it.
std::vector<std::size_t> envelope(const CsrMatrix& a) {
  std::vector<std::size_t> first_row(a.rows());
  for (std::size_t j = 0; j < a.rows(); ++j) first_row[j] = j;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::span<const std::size_t> cols;
    std::span<const double> vals;
    a.row(r, cols, vals);
    for (const std::size_t c : cols) {
      if (r < c) first_row[c] = std::min(first_row[c], r);
      if (c < r) first_row[r] = std::min(first_row[r], c);
    }
  }
  return first_row;
}

/// Crout/Cholesky through value_at/at in place, then forward/backward
/// substitution through value_at.
Vector skyline_solve(SkylineMatrix& s, const std::vector<std::size_t>& first,
                     std::span<const double> b) {
  const std::size_t n = s.size();
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t i = first[j]; i <= j; ++i) {
      double sum = s.value_at(i, j);
      const std::size_t k_begin = std::max(first[j], first[i]);
      for (std::size_t k = k_begin; k < i; ++k)
        sum -= s.value_at(i, k) * s.value_at(k, j);
      s.at(i, j) = i == j ? std::sqrt(sum) : sum / s.value_at(i, i);
    }
  }
  Vector y(b.begin(), b.end());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = first[i]; k < i; ++k)
      y[i] -= s.value_at(k, i) * y[k];
    y[i] /= s.value_at(i, i);
  }
  for (std::size_t j = n; j-- > 0;) {
    y[j] /= s.value_at(j, j);
    for (std::size_t k = first[j]; k < j; ++k)
      y[k] -= s.value_at(k, j) * y[j];
  }
  return y;
}

}  // namespace before

/// Exact bit patterns, so a -0.0/+0.0 or NaN-payload drift also fails.
void expect_bits_equal(std::span<const double> got,
                       std::span<const double> want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << " [" << i << "]: " << got[i] << " vs " << want[i];
}

void expect_same_result(const SolveResult& got, const SolveResult& want,
                        const std::string& what) {
  expect_bits_equal(got.x, want.x, what + " x");
  EXPECT_EQ(got.report.iterations, want.report.iterations) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.report.residual_norm),
            std::bit_cast<std::uint64_t>(want.report.residual_norm))
      << what << ": " << got.report.residual_norm << " vs "
      << want.report.residual_norm;
  EXPECT_EQ(got.report.converged, want.report.converged) << what;
  EXPECT_EQ(got.report.method, want.report.method) << what;
}

/// Symmetric off-diagonal entries plus a diagonal that strictly
/// dominates each row (so SPD), as CSR.
CsrMatrix with_dominant_diagonal(const DenseMatrix& off, support::Rng& rng) {
  const std::size_t n = off.rows();
  TripletBuilder tb(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i || off(i, j) == 0.0) continue;
      sum += std::abs(off(i, j));
      tb.add(i, j, off(i, j));
    }
    tb.add(i, i, sum + rng.uniform(0.5, 1.5));
  }
  return tb.build();
}

/// Random sparse SPD matrix with rows of mixed odd and even length.
CsrMatrix random_sparse_spd(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  DenseMatrix off(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t degree = 1 + rng.next_below(6);
    for (std::size_t e = 0; e < degree; ++e) {
      const auto j = static_cast<std::size_t>(rng.next_below(n));
      if (j != i) off(i, j) = off(j, i) = rng.uniform(-1.0, 1.0);
    }
  }
  return with_dominant_diagonal(off, rng);
}

Vector random_rhs(std::size_t n, std::uint64_t seed) {
  support::Rng rng(seed);
  Vector b(n);
  for (double& v : b) v = rng.uniform(-2.0, 2.0);
  return b;
}

/// Reduced stiffness and tip-shear load of the benches' cantilever sheet.
std::pair<CsrMatrix, Vector> sheet_system(std::size_t nx, std::size_t ny) {
  fem::PlateMeshOptions mesh;
  mesh.nx = nx;
  mesh.ny = ny;
  mesh.width = static_cast<double>(nx) / 8.0;
  mesh.height = static_cast<double>(ny) / 8.0;
  mesh.material.youngs_modulus = 70e9;
  mesh.material.thickness = 0.005;
  const auto model = fem::make_cantilever_plate(mesh, 1'000.0);
  auto system = fem::assemble(model);
  Vector rhs = system.load_vector(model.load_sets.at("tip-shear"));
  return {std::move(system.stiffness), std::move(rhs)};
}

/// The stopping cases every iterative solver must reproduce: converged,
/// no iterations allowed, iteration cap hit, b = 0, and a tolerance that
/// accepts x⁰ before any sweep.
struct StopCase {
  const char* name;
  double tolerance;
  std::size_t max_iterations;
  bool zero_rhs;
};

const StopCase kStopCases[] = {{"converged", 1e-10, 100'000, false},
                               {"max_iterations=0", 1e-10, 0, false},
                               {"cap hit", 1e-14, 7, false},
                               {"b=0", 1e-10, 100, true},
                               {"tol>=1", 1.0, 100, false}};

/// One size for each n mod 4.
constexpr std::size_t kSizes[] = {60, 61, 62, 63};

/// Stops the solver at each of the first sweeps' residuals in turn, with
/// the tolerance set to exactly the old kernel's value there: a residual
/// one ulp off changes the iteration count or the reported norm.  (A
/// different lane order moves a norm by an ulp only now and then.)
void expect_same_at_every_sweep(
    SolveResult (*solver)(const CsrMatrix&, std::span<const double>,
                          const SolveOptions&),
    SolveResult (*before_solver)(const CsrMatrix&, std::span<const double>,
                                 const SolveOptions&, std::vector<double>*),
    const CsrMatrix& a, const Vector& b, SolveOptions options,
    const std::string& what) {
  options.tolerance = 0.0;
  options.max_iterations = 80;
  std::vector<double> residuals;
  before_solver(a, b, options, &residuals);
  for (std::size_t k = 0; k < residuals.size(); ++k) {
    options.tolerance = residuals[k];
    expect_same_result(solver(a, b, options),
                       before_solver(a, b, options, nullptr),
                       what + " stop at sweep " + std::to_string(k));
  }
}

TEST(BitIdentity, SorMatchesResidualThenSweep) {
  for (const std::size_t n : kSizes) {
    const auto a = random_sparse_spd(n, 100 + n);
    for (const double omega : {1.0, 1.5}) {
      for (const auto& stop : kStopCases) {
        const Vector b = stop.zero_rhs ? Vector(n, 0.0) : random_rhs(n, n);
        SolveOptions options;
        options.sor_omega = omega;
        options.tolerance = stop.tolerance;
        options.max_iterations = stop.max_iterations;
        const auto what = "n=" + std::to_string(n) + " omega=" +
                          std::to_string(omega) + " " + stop.name;
        expect_same_result(sor(a, b, options), before::sor(a, b, options),
                           what);
      }
      SolveOptions options;
      options.sor_omega = omega;
      expect_same_at_every_sweep(
          sor, before::sor, a, random_rhs(n, n), options,
          "n=" + std::to_string(n) + " omega=" + std::to_string(omega));
    }
  }
}

TEST(BitIdentity, SorMatchesOnTheSheet) {
  // The benchmark's SOR case is the 12x6 sheet at omega 1.5 and tol 1e-8,
  // 4,472 sweeps.
  const auto [a, b] = sheet_system(12, 6);
  for (const double omega : {1.0, 1.5}) {
    SolveOptions options;
    options.sor_omega = omega;
    options.tolerance = 1e-8;
    options.max_iterations = 50'000;
    const auto got = sor(a, b, options);
    ASSERT_TRUE(got.report.converged);
    if (omega == 1.5) {
      EXPECT_EQ(got.report.iterations, 4'472u);
    }
    expect_same_result(got, before::sor(a, b, options),
                       "sheet omega=" + std::to_string(omega));
  }
}

TEST(BitIdentity, SorZeroDiagonalFailsOnlyWhenItMustSweep) {
  // Row 1 has no diagonal.  The residual pass used to run before the
  // sweep, so x⁰ accepted by the tolerance never reached the check.
  TripletBuilder tb(3, 3);
  tb.add(0, 0, 2.0);
  tb.add(0, 1, 1.0);
  tb.add(1, 0, 1.0);
  tb.add(2, 2, 3.0);
  const auto a = tb.build();
  const Vector b{1.0, 2.0, 3.0};
  SolveOptions options;
  EXPECT_THROW(sor(a, b, options), support::CheckError);
  options.tolerance = 1.0;
  const auto accepted = sor(a, b, options);
  EXPECT_TRUE(accepted.report.converged);
  EXPECT_EQ(accepted.report.iterations, 0u);
  EXPECT_EQ(accepted.x, Vector(3, 0.0));
}

TEST(BitIdentity, JacobiMatchesTheAllocatingLoop) {
  for (const std::size_t n : kSizes) {
    const auto a = random_sparse_spd(n, 200 + n);
    for (const auto& stop : kStopCases) {
      const Vector b = stop.zero_rhs ? Vector(n, 0.0) : random_rhs(n, n);
      SolveOptions options;
      options.tolerance = stop.tolerance;
      options.max_iterations = stop.max_iterations;
      expect_same_result(jacobi(a, b, options), before::jacobi(a, b, options),
                         "n=" + std::to_string(n) + " " + stop.name);
    }
    expect_same_at_every_sweep(jacobi, before::jacobi, a, random_rhs(n, n),
                               {}, "n=" + std::to_string(n));
  }
}

TEST(BitIdentity, CgMatchesTheAllocatingLoop) {
  for (const std::size_t n : kSizes) {
    const auto a = random_sparse_spd(n, 300 + n);
    TwoLevelOptions coarse;
    coarse.coarse_dofs = 4;
    const TwoLevelPreconditioner two_level(a, coarse);
    for (const auto& stop : kStopCases) {
      const Vector b = stop.zero_rhs ? Vector(n, 0.0) : random_rhs(n, n);
      for (const std::string precond : {"none", "jacobi", "two-level"}) {
        SolveOptions options;
        options.tolerance = stop.tolerance;
        options.max_iterations = stop.max_iterations;
        options.jacobi_preconditioner = precond == "jacobi";
        if (precond == "two-level") options.preconditioner = &two_level;
        expect_same_result(
            conjugate_gradient(a, b, options),
            before::conjugate_gradient(a, b, options),
            "n=" + std::to_string(n) + " " + precond + " " + stop.name);
      }
    }
  }
}

void expect_skyline_matches(const CsrMatrix& a, std::span<const double> b,
                            const std::string& what) {
  auto got = SkylineMatrix::from_csr(a);
  got.factorize();
  const Vector x = got.solve(b);

  const auto first = before::envelope(a);
  SkylineMatrix want(first);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    std::span<const std::size_t> cols;
    std::span<const double> vals;
    a.row(r, cols, vals);
    for (std::size_t k = 0; k < cols.size(); ++k)
      if (cols[k] >= r) want.at(r, cols[k]) = vals[k];
  }
  expect_bits_equal(x, before::skyline_solve(want, first, b), what + " x");
  for (std::size_t j = 0; j < a.rows(); ++j)
    for (std::size_t i = first[j]; i <= j; ++i)
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got.value_at(i, j)),
                std::bit_cast<std::uint64_t>(want.value_at(i, j)))
          << what << " L(" << j << ", " << i << ")";
}

TEST(BitIdentity, SkylineMatchesCroutThroughValueAt) {
  // Random full profiles with column heights between 1 and 9, so the
  // k-overlap ranges vary.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    support::Rng rng(seed);
    const std::size_t n = 20 + seed;
    DenseMatrix off(n, n);
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t first = j - std::min<std::size_t>(j, rng.next_below(9));
      for (std::size_t i = first; i < j; ++i)
        off(i, j) = off(j, i) = rng.uniform(-1.0, 1.0);
    }
    expect_skyline_matches(with_dominant_diagonal(off, rng),
                           random_rhs(n, seed), "seed " + std::to_string(seed));
  }
}

TEST(BitIdentity, SkylineMatchesOnTheSheet) {
  const auto [a, b] = sheet_system(48, 12);
  expect_skyline_matches(a, b, "48x12 sheet");
}

}  // namespace
}  // namespace fem2::la
