// Broad parameter sweeps over the mixed-precision tile Cholesky: matrix
// size x tile size grids (including primes and ragged edges), correlation
// structure, solve-through-the-factor accuracy, and thread-count invariance.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "linalg/solve.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::linalg;
using runtime::cholesky_mixed_dense;

Matrix spd(index_t n, double length_scale) {
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(static_cast<double>(i - j)) / length_scale);
    }
    a(i, i) += 1e-3;
  }
  return a;
}

struct SweepCase {
  index_t n;
  index_t nb;
};

class SizeTileSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SizeTileSweep, DpFactorizationIsAccurate) {
  const auto [n, nb] = GetParam();
  const Matrix a = spd(n, static_cast<double>(n) / 10.0);
  const Matrix l = cholesky_mixed_dense(a, nb, PrecisionVariant::DP);
  EXPECT_LT(cholesky_residual(a, l), 1e-12) << "n=" << n << " nb=" << nb;
}

TEST_P(SizeTileSweep, DpHpFactorizationWithinHalfPrecision)
{
  const auto [n, nb] = GetParam();
  const Matrix a = spd(n, static_cast<double>(n) / 10.0);
  const Matrix l = cholesky_mixed_dense(a, nb, PrecisionVariant::DP_HP);
  EXPECT_LT(cholesky_residual(a, l), 2e-2) << "n=" << n << " nb=" << nb;
}

TEST_P(SizeTileSweep, OneThreadMatchesEightThreads) {
  // threads = 1 is the sequential schedule; any schedule must reproduce its
  // factor bit for bit (same kernels, same update order per tile).
  const auto [n, nb] = GetParam();
  const index_t nt = (n + nb - 1) / nb;
  const Matrix a = spd(n, static_cast<double>(n) / 10.0);
  Matrix factors[2];
  int idx = 0;
  for (unsigned threads : {1u, 8u}) {
    auto t = TiledSymmetricMatrix::from_dense(
        a, nb, make_band_policy(nt, PrecisionVariant::DP_HP));
    runtime::RtCholeskyOptions opt;
    opt.threads = threads;
    runtime::cholesky_tiled_parallel(t, opt);
    factors[idx++] = t.to_dense(true);
  }
  const Matrix& l1 = factors[0];
  const Matrix& l2 = factors[1];
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) EXPECT_EQ(l1(i, j), l2(i, j));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SizeTileSweep,
    ::testing::Values(SweepCase{64, 16},    // many small tiles
                      SweepCase{97, 32},    // prime n, ragged edge
                      SweepCase{128, 32},   // exact fit
                      SweepCase{130, 32},   // edge tile of 2
                      SweepCase{255, 64},   // edge tile of 63
                      SweepCase{256, 96},   // nb does not divide n
                      SweepCase{311, 100},  // prime n, decimal nb
                      SweepCase{64, 64},    // single tile
                      SweepCase{65, 64}));  // single tile + 1 row

class CorrelationSweep : public ::testing::TestWithParam<double> {};

TEST_P(CorrelationSweep, ResidualDegradesGracefullyWithConditioning) {
  // Faster-decaying correlation -> better conditioned -> mixed precision is
  // relatively more accurate. All cases must stay within the coarse HP
  // bound; the well-conditioned case must be far better.
  const double length_scale = GetParam();
  const index_t n = 192;
  const Matrix a = spd(n, length_scale);
  const Matrix l = cholesky_mixed_dense(a, 48, PrecisionVariant::DP_HP);
  const double resid = cholesky_residual(a, l);
  EXPECT_LT(resid, 5e-2) << length_scale;
  if (length_scale <= 4.0) {
    EXPECT_LT(resid, 2e-3) << length_scale;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CorrelationSweep,
                         ::testing::Values(1.0, 4.0, 16.0, 48.0));

TEST(CholeskySolve, FactorSolvesLinearSystems) {
  // End use of V: solving and sampling. A x = b through the mixed factor
  // must be accurate to the variant's class.
  const index_t n = 160;
  const Matrix a = spd(n, 12.0);
  common::Rng rng(3);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  for (PrecisionVariant variant :
       {PrecisionVariant::DP, PrecisionVariant::DP_SP}) {
    const Matrix l = cholesky_mixed_dense(a, 40, variant);
    const auto y = forward_substitute(l, b);
    const auto x = backward_substitute(l, y);
    const auto ax = matvec(a, x);
    double err = 0.0;
    double norm = 0.0;
    for (index_t i = 0; i < n; ++i) {
      err += (ax[static_cast<std::size_t>(i)] - b[static_cast<std::size_t>(i)]) *
             (ax[static_cast<std::size_t>(i)] - b[static_cast<std::size_t>(i)]);
      norm += b[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)];
    }
    const double rel = std::sqrt(err / norm);
    EXPECT_LT(rel, variant == PrecisionVariant::DP ? 1e-10 : 1e-3)
        << variant_name(variant);
  }
}

TEST(CholeskySampling, MixedFactorSamplesHaveRightCovariance) {
  // The emulator's actual use: xi = V z. Empirical covariance of samples
  // from the DP/HP factor must approximate A.
  const index_t n = 32;
  const Matrix a = spd(n, 6.0);
  const Matrix l = cholesky_mixed_dense(a, 8, PrecisionVariant::DP_HP);
  common::Rng rng(4);
  const int samples = 60000;
  Matrix acc(n, n);
  for (int s = 0; s < samples; ++s) {
    const auto x = sample_mvn(l, rng);
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        acc(i, j) += x[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(j)];
      }
    }
  }
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(acc(i, j) / samples, a(i, j), 0.05) << i << "," << j;
    }
  }
}

TEST(CholeskyDeterminism, RepeatedRunsBitIdentical) {
  const index_t n = 200;
  const Matrix a = spd(n, 20.0);
  const Matrix l1 = cholesky_mixed_dense(a, 64, PrecisionVariant::DP_HP);
  const Matrix l2 = cholesky_mixed_dense(a, 64, PrecisionVariant::DP_HP);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) EXPECT_EQ(l1(i, j), l2(i, j));
  }
}

}  // namespace
