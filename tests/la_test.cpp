#include <gtest/gtest.h>

#include <cmath>

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

TEST(Dense, MultiplyAndTranspose) {
  DenseMatrix a(2, 3);
  a(0, 0) = 1; a(0, 1) = 2; a(0, 2) = 3;
  a(1, 0) = 4; a(1, 1) = 5; a(1, 2) = 6;
  const auto y = a.multiply(Vector{1, 1, 1});
  EXPECT_EQ(y, (Vector{6, 15}));
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
              const JacobiPreconditioner jacobi(a);
              auto opts = o;
              opts.preconditioner = &jacobi;
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

}  // namespace
}  // namespace fem2::la
