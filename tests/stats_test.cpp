// Tests for stats/: OLS, the Eq. 2 trend model, AR(P), empirical covariance,
// and diagnostics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "runtime/tiled_cholesky_rt.hpp"
#include "stats/ar.hpp"
#include "stats/covariance.hpp"
#include "stats/diagnostics.hpp"
#include "stats/ols.hpp"
#include "stats/trend.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::stats;

// ---------- OLS ---------------------------------------------------------------

TEST(Ols, RecoversExactLinearModel) {
  const index_t n = 100;
  linalg::Matrix x(n, 3);
  std::vector<double> y(static_cast<std::size_t>(n));
  common::Rng rng(1);
  for (index_t i = 0; i < n; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = rng.normal();
    x(i, 2) = rng.normal();
    y[static_cast<std::size_t>(i)] = 2.0 + 3.0 * x(i, 1) - 0.5 * x(i, 2);
  }
  const OlsFit fit = ols(x, y);
  EXPECT_NEAR(fit.beta[0], 2.0, 1e-9);
  EXPECT_NEAR(fit.beta[1], 3.0, 1e-9);
  EXPECT_NEAR(fit.beta[2], -0.5, 1e-9);
  EXPECT_NEAR(fit.sse, 0.0, 1e-12);
}

TEST(Ols, SigmaEstimatesNoise) {
  const index_t n = 20000;
  linalg::Matrix x(n, 2);
  std::vector<double> y(static_cast<std::size_t>(n));
  common::Rng rng(2);
  for (index_t i = 0; i < n; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = rng.normal();
    y[static_cast<std::size_t>(i)] = 1.0 + x(i, 1) + rng.normal(0.0, 0.7);
  }
  const OlsFit fit = ols(x, y);
  EXPECT_NEAR(fit.sigma, 0.7, 0.02);
}

TEST(Ols, SurvivesCollinearDesign) {
  // Two identical columns: ridge fallback must keep it finite.
  const index_t n = 50;
  linalg::Matrix x(n, 2);
  std::vector<double> y(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x(i, 0) = 1.0;
    x(i, 1) = 1.0;
    y[static_cast<std::size_t>(i)] = 2.0;
  }
  const OlsFit fit = ols(x, y);
  EXPECT_TRUE(std::isfinite(fit.beta[0]));
  EXPECT_TRUE(std::isfinite(fit.beta[1]));
  EXPECT_NEAR(fit.beta[0] + fit.beta[1], 2.0, 1e-6);
}

TEST(Ols, RejectsUnderdeterminedSystem) {
  linalg::Matrix x(2, 3);
  std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW(ols(x, y), InvalidArgument);
}

// ---------- trend (Eq. 2) -------------------------------------------------------

TEST(Trend, LaggedForcingRecursionMatchesDirectSum) {
  const std::vector<double> x = {1.0, 2.0, 4.0, 7.0, 11.0};
  const double rho = 0.6;
  const index_t period = 3;
  const auto w = lagged_forcing(x, 15, period, rho);
  // Direct evaluation: W_y = (1-rho) sum_{s>=1} rho^{s-1} x_{y-s} with
  // pre-sample history frozen at x_0.
  for (index_t t = 1; t <= 15; ++t) {
    const index_t year = (t + period - 1) / period;  // 1-based
    double expect = 0.0;
    for (index_t s = 1; s <= 60; ++s) {
      const index_t past = year - s;  // 1-based index of x
      const double xv = past >= 1 ? x[static_cast<std::size_t>(past - 1)] : x[0];
      expect += (1.0 - rho) * std::pow(rho, static_cast<double>(s - 1)) * xv;
    }
    EXPECT_NEAR(w[static_cast<std::size_t>(t - 1)], expect, 1e-9) << t;
  }
}

TEST(Trend, ZeroRhoLagIsPreviousYear) {
  const std::vector<double> x = {3.0, 5.0, 9.0};
  const auto w = lagged_forcing(x, 6, 2, 0.0);
  EXPECT_DOUBLE_EQ(w[0], 3.0);  // year 1: frozen history
  EXPECT_DOUBLE_EQ(w[2], 3.0);  // year 2: x_1
  EXPECT_DOUBLE_EQ(w[4], 5.0);  // year 3: x_2
}

TEST(Trend, RecoversKnownModel) {
  // Generate data exactly from the Eq. 2 family and check parameter recovery.
  const index_t period = 24;
  const index_t years = 12;
  const index_t num_steps = period * years;
  std::vector<double> forcing(static_cast<std::size_t>(years));
  for (index_t y = 0; y < years; ++y) {
    forcing[static_cast<std::size_t>(y)] = 0.5 + 0.3 * static_cast<double>(y);
  }
  TrendModel truth;
  truth.beta0 = 280.0;
  truth.beta1 = 1.5;
  truth.beta2 = 0.8;
  truth.rho = 0.5;
  truth.cos_coeff = {8.0, 1.0};
  truth.sin_coeff = {-3.0, 0.5};
  truth.period = period;
  const auto clean = trend_series(truth, num_steps, forcing);

  common::Rng rng(3);
  std::vector<double> noisy(clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    noisy[i] = clean[i] + rng.normal(0.0, 0.2);
  }
  TrendFitConfig cfg;
  cfg.harmonics = 2;
  cfg.period = period;
  const TrendModel fit = fit_trend(noisy, 1, num_steps, forcing, cfg);
  EXPECT_NEAR(fit.rho, 0.5, 0.11);  // grid resolution
  EXPECT_NEAR(fit.cos_coeff[0], 8.0, 0.1);
  EXPECT_NEAR(fit.sin_coeff[0], -3.0, 0.1);
  EXPECT_NEAR(fit.sigma, 0.2, 0.05);
  // Fitted trend must track the truth closely.
  const auto fitted = trend_series(fit, num_steps, forcing);
  double max_err = 0.0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    max_err = std::max(max_err, std::abs(fitted[i] - clean[i]));
  }
  EXPECT_LT(max_err, 0.35);
}

TEST(Trend, SharedAcrossEnsembles) {
  const index_t period = 12;
  const index_t num_steps = 60;
  const index_t R = 3;
  std::vector<double> forcing(5, 1.0);
  TrendModel truth;
  truth.beta0 = 10.0;
  truth.cos_coeff = {2.0};
  truth.sin_coeff = {0.0};
  truth.period = period;
  const auto clean = trend_series(truth, num_steps, forcing);
  common::Rng rng(4);
  std::vector<double> stacked(static_cast<std::size_t>(R * num_steps));
  for (index_t r = 0; r < R; ++r) {
    for (index_t t = 0; t < num_steps; ++t) {
      stacked[static_cast<std::size_t>(r * num_steps + t)] =
          clean[static_cast<std::size_t>(t)] + rng.normal(0.0, 0.5);
    }
  }
  TrendFitConfig cfg;
  cfg.harmonics = 1;
  cfg.period = period;
  const TrendModel fit = fit_trend(stacked, R, num_steps, forcing, cfg);
  EXPECT_NEAR(fit.cos_coeff[0], 2.0, 0.15);
  EXPECT_NEAR(fit.sigma, 0.5, 0.1);
}

TEST(Trend, RejectsShortForcing) {
  TrendFitConfig cfg;
  cfg.period = 10;
  std::vector<double> y(100, 0.0);
  std::vector<double> forcing = {1.0};  // 10 years of data, 1 year of forcing
  EXPECT_THROW(fit_trend(y, 1, 100, forcing, cfg), InvalidArgument);
}

TEST(Trend, RejectsBadRho) {
  EXPECT_THROW(lagged_forcing(std::vector<double>{1.0}, 5, 1, 1.0),
               InvalidArgument);
  EXPECT_THROW(lagged_forcing(std::vector<double>{1.0}, 5, 1, -0.1),
               InvalidArgument);
}

// ---------- AR(P) ---------------------------------------------------------------

TEST(Ar, RecoversAr1Coefficient) {
  common::Rng rng(5);
  const index_t n = 50000;
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (index_t t = 1; t < n; ++t) {
    y[static_cast<std::size_t>(t)] =
        0.7 * y[static_cast<std::size_t>(t - 1)] + rng.normal();
  }
  const ArModel model = fit_ar(y, 1);
  EXPECT_NEAR(model.phi[0], 0.7, 0.02);
  EXPECT_NEAR(model.innovation_variance, 1.0, 0.05);
}

TEST(Ar, RecoversAr3Coefficients) {
  common::Rng rng(6);
  const index_t n = 200000;
  const std::vector<double> phi = {0.5, -0.3, 0.1};
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (index_t t = 3; t < n; ++t) {
    double v = rng.normal(0.0, 0.8);
    for (index_t p = 0; p < 3; ++p) {
      v += phi[static_cast<std::size_t>(p)] *
           y[static_cast<std::size_t>(t - 1 - p)];
    }
    y[static_cast<std::size_t>(t)] = v;
  }
  const ArModel model = fit_ar(y, 3);
  EXPECT_NEAR(model.phi[0], 0.5, 0.02);
  EXPECT_NEAR(model.phi[1], -0.3, 0.02);
  EXPECT_NEAR(model.phi[2], 0.1, 0.02);
  EXPECT_NEAR(model.innovation_variance, 0.64, 0.04);
}

TEST(Ar, EnsembleFitPoolsInformation) {
  common::Rng rng(7);
  const index_t T = 400;
  const index_t R = 16;
  std::vector<double> stacked(static_cast<std::size_t>(R * T), 0.0);
  for (index_t r = 0; r < R; ++r) {
    for (index_t t = 1; t < T; ++t) {
      stacked[static_cast<std::size_t>(r * T + t)] =
          0.6 * stacked[static_cast<std::size_t>(r * T + t - 1)] + rng.normal();
    }
  }
  const ArModel model = fit_ar_ensemble(stacked, R, T, 1);
  EXPECT_NEAR(model.phi[0], 0.6, 0.03);
}

TEST(Ar, ResidualsAreInnovations) {
  common::Rng rng(8);
  const index_t n = 2000;
  std::vector<double> innovations(static_cast<std::size_t>(n));
  for (auto& v : innovations) v = rng.normal();
  ArModel model;
  model.phi = {0.4, 0.2};
  const auto y = ar_simulate(model, innovations);
  const auto resid = ar_residuals(model, y);
  ASSERT_EQ(resid.size(), static_cast<std::size_t>(n - 2));
  for (std::size_t i = 0; i < resid.size(); ++i) {
    EXPECT_NEAR(resid[i], innovations[i + 2], 1e-10);
  }
}

TEST(Ar, RejectsTooShortSeries) {
  std::vector<double> y(5, 1.0);
  EXPECT_THROW(fit_ar(y, 3), InvalidArgument);
}

// ---------- covariance ------------------------------------------------------------

TEST(Covariance, MatchesManualComputation) {
  linalg::Matrix samples(3, 2);
  samples(0, 0) = 1.0;
  samples(0, 1) = 2.0;
  samples(1, 0) = -1.0;
  samples(1, 1) = 0.0;
  samples(2, 0) = 0.0;
  samples(2, 1) = 1.0;
  const linalg::Matrix u = empirical_covariance(samples);
  // U = (1/3) sum x x^T (Eq. 9 is uncentered).
  EXPECT_NEAR(u(0, 0), (1.0 + 1.0 + 0.0) / 3.0, 1e-14);
  EXPECT_NEAR(u(0, 1), (2.0 + 0.0 + 0.0) / 3.0, 1e-14);
  EXPECT_NEAR(u(1, 1), (4.0 + 0.0 + 1.0) / 3.0, 1e-14);
  EXPECT_EQ(u(0, 1), u(1, 0));
}

TEST(Covariance, ParallelMatchesSerial) {
  common::Rng rng(9);
  linalg::Matrix samples(200, 40);
  for (index_t i = 0; i < 200; ++i) {
    for (index_t j = 0; j < 40; ++j) samples(i, j) = rng.normal();
  }
  const auto serial = empirical_covariance(samples);
  const auto parallel = empirical_covariance_parallel(samples, 8);
  EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                        40 * 40 * sizeof(double)),
            0);
}

TEST(Covariance, ConvergesToTruth) {
  // Samples from N(0, diag(4, 1)) -> U-hat approaches diag(4, 1).
  common::Rng rng(10);
  const index_t n = 100000;
  linalg::Matrix samples(n, 2);
  for (index_t i = 0; i < n; ++i) {
    samples(i, 0) = rng.normal(0.0, 2.0);
    samples(i, 1) = rng.normal(0.0, 1.0);
  }
  const auto u = empirical_covariance(samples);
  EXPECT_NEAR(u(0, 0), 4.0, 0.08);
  EXPECT_NEAR(u(1, 1), 1.0, 0.03);
  EXPECT_NEAR(u(0, 1), 0.0, 0.05);
}

TEST(Covariance, DeficientSampleGetsJitter) {
  // Fewer samples than dimensions: the paper's R(T-P) < L^2 case.
  common::Rng rng(11);
  linalg::Matrix samples(3, 8);
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 8; ++j) samples(i, j) = rng.normal();
  }
  const PreparedCovariance prep = prepare_covariance(samples);
  EXPECT_TRUE(prep.was_deficient);
  EXPECT_GT(prep.jitter, 0.0);
  EXPECT_EQ(prep.jitter, prep.jitter_unit);
  // The jittered rank-3 matrix factors through the library's one Cholesky.
  auto tiled = linalg::TiledSymmetricMatrix::from_dense(
      prep.u, 4, linalg::make_band_policy(2, linalg::PrecisionVariant::DP));
  EXPECT_NO_THROW(runtime::cholesky_tiled_parallel(tiled));
}

TEST(Covariance, FullRankSampleNeedsNoJitter) {
  common::Rng rng(12);
  linalg::Matrix samples(500, 6);
  for (index_t i = 0; i < 500; ++i) {
    for (index_t j = 0; j < 6; ++j) samples(i, j) = rng.normal();
  }
  const PreparedCovariance prep = prepare_covariance(samples);
  EXPECT_FALSE(prep.was_deficient);
  EXPECT_EQ(prep.jitter, 0.0);
}

// ---------- diagnostics -------------------------------------------------------------

TEST(Diagnostics, BasicMoments) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(x), 2.5);
  EXPECT_NEAR(variance(x), 5.0 / 3.0, 1e-14);
  EXPECT_NEAR(standard_deviation(x), std::sqrt(5.0 / 3.0), 1e-14);
}

TEST(Diagnostics, CovarianceAndCorrelation) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {2.0, 4.0, 6.0};
  EXPECT_NEAR(correlation(x, y), 1.0, 1e-12);
  const std::vector<double> z = {3.0, 2.0, 1.0};
  EXPECT_NEAR(correlation(x, z), -1.0, 1e-12);
}

TEST(Diagnostics, AutocorrelationOfWhiteAndAr1) {
  common::Rng rng(13);
  const index_t n = 50000;
  std::vector<double> white(static_cast<std::size_t>(n));
  for (auto& v : white) v = rng.normal();
  const auto acf_white = autocorrelation(white, 3);
  EXPECT_DOUBLE_EQ(acf_white[0], 1.0);
  EXPECT_NEAR(acf_white[1], 0.0, 0.02);

  std::vector<double> ar(static_cast<std::size_t>(n), 0.0);
  for (index_t t = 1; t < n; ++t) {
    ar[static_cast<std::size_t>(t)] =
        0.8 * ar[static_cast<std::size_t>(t - 1)] + rng.normal();
  }
  const auto acf_ar = autocorrelation(ar, 2);
  EXPECT_NEAR(acf_ar[1], 0.8, 0.03);
  EXPECT_NEAR(acf_ar[2], 0.64, 0.04);
}

TEST(Diagnostics, KsDistanceDiscriminates) {
  common::Rng rng(14);
  std::vector<double> a(20000);
  std::vector<double> b(20000);
  std::vector<double> c(20000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal();
    b[i] = rng.normal();          // same distribution
    c[i] = rng.normal(1.0, 1.0);  // shifted
  }
  EXPECT_LT(ks_distance(a, b), 0.02);
  EXPECT_GT(ks_distance(a, c), 0.3);
}

TEST(Diagnostics, QuantilesAreOrderStatistics) {
  const std::vector<double> x = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(x, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(x, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(x, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(quantile(x, 0.25), 2.0);
}

TEST(Diagnostics, CompareMomentsSummarizes) {
  common::Rng rng(15);
  std::vector<double> a(10000);
  std::vector<double> b(10000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.normal(5.0, 2.0);
    b[i] = rng.normal(5.0, 2.0);
  }
  const MomentComparison c = compare_moments(a, b);
  EXPECT_NEAR(c.mean_a, c.mean_b, 0.1);
  EXPECT_NEAR(c.sd_a, c.sd_b, 0.1);
  EXPECT_LT(c.ks, 0.03);
}

TEST(Diagnostics, RejectDegenerateInputs) {
  const std::vector<double> empty;
  const std::vector<double> one = {1.0};
  EXPECT_THROW(mean(empty), InvalidArgument);
  EXPECT_THROW(variance(one), InvalidArgument);
  EXPECT_THROW(quantile(empty, 0.5), InvalidArgument);
  const std::vector<double> constant = {2.0, 2.0, 2.0};
  EXPECT_THROW(correlation(constant, constant), InvalidArgument);
}

}  // namespace
