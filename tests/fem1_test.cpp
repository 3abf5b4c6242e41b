// FEM-1 baseline model tests.
#include <gtest/gtest.h>

#include "fem/mesh.hpp"
#include "fem1/fem1.hpp"
#include "la/iterative.hpp"

namespace fem2::fem1 {
namespace {

la::CsrMatrix laplacian_1d(std::size_t n) {
  la::TripletBuilder b(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, 2.0);
    if (i > 0) b.add(i, i - 1, -1.0);
    if (i + 1 < n) b.add(i, i + 1, -1.0);
  }
  return b.build();
}

TEST(Fem1, SolvesAndReportsIterationsMatchingNumerics) {
  const auto a = laplacian_1d(32);
  std::vector<double> rhs(32, 1.0);
  const auto result = fem1_solve(a, rhs, Fem1Config{}, Fem1Solver::Jacobi,
                                 1e-9);
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(result.converged);
  const auto reference =
      la::jacobi(a, rhs, {.tolerance = 1e-9, .max_iterations = 200'000});
  EXPECT_EQ(result.iterations, reference.report.iterations);
  EXPECT_GT(result.elapsed, 0u);
  EXPECT_GT(result.pe_utilization, 0.0);
  EXPECT_LE(result.pe_utilization, 1.0);
}

TEST(Fem1, GaussSeidelBeatsJacobi) {
  const auto a = laplacian_1d(48);
  std::vector<double> rhs(48, 1.0);
  const auto jac = fem1_solve(a, rhs, Fem1Config{}, Fem1Solver::Jacobi, 1e-8);
  const auto gs =
      fem1_solve(a, rhs, Fem1Config{}, Fem1Solver::GaussSeidel, 1e-8);
  ASSERT_TRUE(jac.converged && gs.converged);
  EXPECT_LT(gs.iterations, jac.iterations);
}

TEST(Fem1, StallsOnFailureWithoutRepartition) {
  const auto a = laplacian_1d(16);
  std::vector<double> rhs(16, 1.0);
  Fem1Config config;
  config.failed_processors = 1;
  const auto result = fem1_solve(a, rhs, config);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.iterations, 0u);
}

TEST(Fem1, ManualRepartitionCompletesWithPenalty) {
  const auto a = laplacian_1d(16);
  std::vector<double> rhs(16, 1.0);
  Fem1Config healthy;
  const auto base = fem1_solve(a, rhs, healthy);
  Fem1Config degraded;
  degraded.failed_processors = 4;
  degraded.manual_repartition = true;
  const auto result = fem1_solve(a, rhs, degraded);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.converged);
  EXPECT_GT(result.elapsed, base.elapsed);
}

TEST(Fem1, MoreProcessorsReduceElapsedTime) {
  const auto model = fem::make_cantilever_plate(
      {.nx = 16, .ny = 8, .material = {.youngs_modulus = 1000.0}}, 5.0);
  Fem1Config small;
  small.processors = 4;
  Fem1Config large;
  large.processors = 36;
  const auto slow = fem1_solve_model(model, "tip-shear", small,
                                     Fem1Solver::GaussSeidel, 1e-6);
  const auto fast = fem1_solve_model(model, "tip-shear", large,
                                     Fem1Solver::GaussSeidel, 1e-6);
  ASSERT_TRUE(slow.converged && fast.converged);
  EXPECT_EQ(slow.iterations, fast.iterations);  // same numerics
  EXPECT_GT(slow.elapsed, fast.elapsed);        // different hardware
}

TEST(Fem1, CommunicationCountsScaleWithIterations) {
  const auto a = laplacian_1d(64);
  std::vector<double> rhs(64, 1.0);
  Fem1Config config;
  config.processors = 16;
  const auto loose = fem1_solve(a, rhs, config, Fem1Solver::Jacobi, 1e-4);
  const auto tight = fem1_solve(a, rhs, config, Fem1Solver::Jacobi, 1e-10);
  ASSERT_TRUE(loose.converged && tight.converged);
  EXPECT_GT(tight.iterations, loose.iterations);
  const auto loose_comm = loose.link_words + loose.bus_words;
  const auto tight_comm = tight.link_words + tight.bus_words;
  EXPECT_GT(tight_comm, loose_comm);
  // Per-iteration traffic is identical (static communication pattern).
  EXPECT_EQ(loose_comm / loose.iterations, tight_comm / tight.iterations);
}

TEST(Fem1, BusTrafficAppearsWhenNeighborsCannotCover) {
  // Many processors on a 1-D chain: block neighbours are grid neighbours,
  // so traffic stays on links; a 2-D problem with striped rows needs the
  // bus for far-apart couplings.
  const auto model = fem::make_cantilever_plate(
      {.nx = 24, .ny = 12, .material = {.youngs_modulus = 1000.0}}, 5.0);
  Fem1Config config;
  config.processors = 25;
  const auto result = fem1_solve_model(model, "tip-shear", config,
                                       Fem1Solver::GaussSeidel, 1e-6);
  ASSERT_TRUE(result.converged);
  EXPECT_GT(result.bus_words, 0u);
  EXPECT_GT(result.link_words, 0u);
}

}  // namespace
}  // namespace fem2::fem1
