// Tests for core/multivariate: the joint multi-variable emulator (paper
// Section VI future work) and the bivariate synthetic generator.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "climate/synthetic_esm.hpp"
#include "common/error.hpp"
#include "core/consistency.hpp"
#include "core/emulator.hpp"
#include "core/multivariate.hpp"
#include "stats/diagnostics.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::core;

climate::SyntheticEsmConfig bivar_config() {
  climate::SyntheticEsmConfig cfg;
  cfg.band_limit = 8;
  cfg.grid = {9, 16};
  cfg.num_years = 4;
  cfg.steps_per_year = 48;
  cfg.num_ensembles = 2;
  cfg.weather_scale = 2.5;
  cfg.nugget_noise = 0.15;
  return cfg;
}

EmulatorConfig joint_config() {
  EmulatorConfig cfg;
  cfg.band_limit = 8;
  cfg.ar_order = 2;
  cfg.harmonics = 2;
  cfg.steps_per_year = 48;
  cfg.tile_size = 32;
  return cfg;
}

/// Pearson correlation of co-located anomaly series of the two variables,
/// averaged over probe points.
double mean_cross_correlation(const climate::ClimateDataset& a,
                              const climate::ClimateDataset& b) {
  const index_t np = a.grid().num_points();
  double acc = 0.0;
  index_t count = 0;
  for (index_t k = 0; k < 12; ++k) {
    const index_t p = 1 + k * (np / 13);
    const index_t lat = p / a.grid().nlon;
    const index_t lon = p % a.grid().nlon;
    auto sa = a.time_series(0, lat, lon);
    auto sb = b.time_series(0, lat, lon);
    // Remove the (deterministic) seasonal mean crudely by differencing.
    std::vector<double> da(sa.size() - 1);
    std::vector<double> db(sb.size() - 1);
    for (std::size_t i = 0; i + 1 < sa.size(); ++i) {
      da[i] = sa[i + 1] - sa[i];
      db[i] = sb[i + 1] - sb[i];
    }
    if (stats::variance(da) <= 0.0 || stats::variance(db) <= 0.0) continue;
    acc += stats::correlation(da, db);
    ++count;
  }
  return acc / static_cast<double>(count);
}

// ---------- bivariate generator ----------------------------------------------

TEST(BivariateEsm, ShapesMatchAndValuesPlausible) {
  const auto data = climate::generate_bivariate_esm(bivar_config(), 0.7);
  EXPECT_EQ(data.primary.num_steps(), data.secondary.num_steps());
  EXPECT_EQ(data.primary.num_ensembles(), 2);
  for (double v : data.primary.raw()) {
    EXPECT_GT(v, 150.0);  // Kelvin range
    EXPECT_LT(v, 400.0);
  }
  for (double v : data.secondary.raw()) {
    EXPECT_GT(v, 900.0);  // hPa-ish range
    EXPECT_LT(v, 1100.0);
  }
}

TEST(BivariateEsm, CrossCorrelationTracksLoading) {
  const auto strong = climate::generate_bivariate_esm(bivar_config(), 0.85);
  const auto weak = climate::generate_bivariate_esm(bivar_config(), 0.1);
  const double c_strong =
      mean_cross_correlation(strong.primary, strong.secondary);
  const double c_weak = mean_cross_correlation(weak.primary, weak.secondary);
  EXPECT_GT(c_strong, 0.4);
  EXPECT_LT(std::abs(c_weak), 0.3);
  EXPECT_GT(c_strong, c_weak + 0.25);
}

TEST(BivariateEsm, NegativeLoadingAnticorrelates) {
  const auto data = climate::generate_bivariate_esm(bivar_config(), -0.8);
  EXPECT_LT(mean_cross_correlation(data.primary, data.secondary), -0.3);
}

TEST(BivariateEsm, RejectsBadLoading) {
  EXPECT_THROW(climate::generate_bivariate_esm(bivar_config(), 1.5),
               InvalidArgument);
}

// ---------- joint emulator ------------------------------------------------------

class TrainedMultiVar : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new climate::BivariateEsm(
        climate::generate_bivariate_esm(bivar_config(), 0.75));
    emulator_ = new MultiVariateEmulator(joint_config());
    report_ = new TrainReport(emulator_->train(
        {&data_->primary, &data_->secondary}, data_->forcing));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete emulator_;
    delete data_;
    report_ = nullptr;
    emulator_ = nullptr;
    data_ = nullptr;
  }
  static climate::BivariateEsm* data_;
  static MultiVariateEmulator* emulator_;
  static TrainReport* report_;
};

climate::BivariateEsm* TrainedMultiVar::data_ = nullptr;
MultiVariateEmulator* TrainedMultiVar::emulator_ = nullptr;
TrainReport* TrainedMultiVar::report_ = nullptr;

TEST_F(TrainedMultiVar, JointDimensionAndDiagnostics) {
  EXPECT_TRUE(emulator_->is_trained());
  EXPECT_EQ(emulator_->num_variables(), 2);
  EXPECT_EQ(emulator_->cholesky_factor().rows(), 2 * 64);
  EXPECT_EQ(emulator_->cholesky_factor().cols(), 2 * 64);
  // The joint trainer fills the same report as the univariate one.
  EXPECT_GT(report_->trend_seconds, 0.0);
  EXPECT_GT(report_->sht_seconds, 0.0);
  EXPECT_GT(report_->ar_seconds, 0.0);
  EXPECT_GT(report_->covariance_seconds, 0.0);
  EXPECT_GT(report_->cholesky_seconds, 0.0);
  EXPECT_GT(report_->total_seconds, 0.0);
  const index_t R = data_->primary.num_ensembles();
  const index_t T = data_->primary.num_steps();
  EXPECT_EQ(report_->innovation_samples, R * (T - joint_config().ar_order));
}

TEST_F(TrainedMultiVar, InnovationsCaptureCrossVariableDependence) {
  // Diagonal blocks correlate with themselves fully; the off-block
  // correlation must be materially nonzero (shared weather) and below 1.
  const double cross = emulator_->innovation_cross_correlation(0, 1);
  const double self = emulator_->innovation_cross_correlation(0, 0);
  EXPECT_NEAR(self, 1.0, 1e-9);
  EXPECT_GT(cross, 0.3);
  EXPECT_LT(cross, 1.0);
}

TEST_F(TrainedMultiVar, EmulationsPreserveCrossVariableCorrelation) {
  // The headline property: emulated variable pairs co-vary like the
  // training pair. Independent univariate emulators would give ~0 here.
  const auto emu = emulator_->emulate(data_->primary.num_steps(), 2,
                                      data_->forcing, 99);
  ASSERT_EQ(emu.size(), 2u);
  const double train_corr =
      mean_cross_correlation(data_->primary, data_->secondary);
  const double emu_corr = mean_cross_correlation(emu[0], emu[1]);
  EXPECT_NEAR(emu_corr, train_corr, 0.25);
  EXPECT_GT(emu_corr, 0.3);
}

TEST_F(TrainedMultiVar, EachVariableIndividuallyConsistent) {
  const auto emu = emulator_->emulate(data_->primary.num_steps(), 2,
                                      data_->forcing, 7);
  const auto r1 = evaluate_consistency(data_->primary, emu[0], 8);
  const auto r2 = evaluate_consistency(data_->secondary, emu[1], 8);
  EXPECT_TRUE(r1.consistent(0.5)) << r1.mean_field_rel_rmse;
  EXPECT_TRUE(r2.consistent(0.5)) << r2.mean_field_rel_rmse;
}

TEST_F(TrainedMultiVar, DeterministicInSeed) {
  const auto a = emulator_->emulate(24, 1, data_->forcing, 5);
  const auto b = emulator_->emulate(24, 1, data_->forcing, 5);
  EXPECT_EQ(a[0].raw(), b[0].raw());
  EXPECT_EQ(a[1].raw(), b[1].raw());
}

TEST(MultiVar, RejectsMismatchedVariables) {
  const auto data = climate::generate_bivariate_esm(bivar_config(), 0.5);
  climate::ClimateDataset other(sht::GridShape{11, 20}, 10, 1, 5);
  MultiVariateEmulator emulator(joint_config());
  EXPECT_THROW(emulator.train({&data.primary, &other}, data.forcing),
               InvalidArgument);
}

TEST(MultiVar, SingleVariableDegeneratesToUnivariate) {
  const auto data = climate::generate_bivariate_esm(bivar_config(), 0.5);
  MultiVariateEmulator emulator(joint_config());
  emulator.train({&data.primary}, data.forcing);
  EXPECT_EQ(emulator.cholesky_factor().rows(), 64);
  const auto emu = emulator.emulate(data.primary.num_steps(), 2,
                                    data.forcing, 3);
  const auto r = evaluate_consistency(data.primary, emu[0], 8);
  EXPECT_TRUE(r.consistent(0.5));

  // One emulation routine: with V = 1 the joint emulator is the univariate
  // one, byte for byte (same trained state, same seed, same draws).
  ClimateEmulator univariate(joint_config());
  univariate.train(data.primary, data.forcing);
  const linalg::Matrix& joint_factor = emulator.cholesky_factor();
  const linalg::Matrix& uni_factor = univariate.cholesky_factor();
  ASSERT_EQ(uni_factor.rows(), joint_factor.rows());
  EXPECT_EQ(std::memcmp(uni_factor.data(), joint_factor.data(),
                        static_cast<std::size_t>(uni_factor.rows() *
                                                 uni_factor.cols()) *
                            sizeof(double)),
            0);
  const auto uni = univariate.emulate(data.primary.num_steps(), 2,
                                      data.forcing, 3);
  EXPECT_TRUE(uni.raw() == emu[0].raw());
}

TEST(MultiVar, UntrainedRejectsUse) {
  MultiVariateEmulator emulator(joint_config());
  const std::vector<double> forcing(4, 1.0);
  EXPECT_THROW(emulator.emulate(10, 1, forcing, 1), InvalidArgument);
  EXPECT_THROW(emulator.innovation_cross_correlation(0, 1), InvalidArgument);
}

}  // namespace
