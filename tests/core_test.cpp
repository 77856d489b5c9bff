// Tests for core/: emulator configuration, training, emulation, consistency
// evaluation, serialization, and the Fig. 1 complexity model.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <utility>

#include "climate/synthetic_esm.hpp"
#include "common/error.hpp"
#include "core/complexity.hpp"
#include "core/consistency.hpp"
#include "core/emulator.hpp"
#include "core/multivariate.hpp"
#include "core/serialize.hpp"
#include "stats/diagnostics.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::core;

climate::SyntheticEsmConfig tiny_esm() {
  climate::SyntheticEsmConfig cfg;
  cfg.band_limit = 8;
  cfg.grid = {9, 16};
  cfg.num_years = 4;
  cfg.steps_per_year = 48;
  cfg.num_ensembles = 2;
  cfg.weather_scale = 2.0;
  return cfg;
}

EmulatorConfig tiny_config() {
  EmulatorConfig cfg;
  cfg.band_limit = 8;
  cfg.ar_order = 2;
  cfg.harmonics = 2;
  cfg.steps_per_year = 48;
  cfg.tile_size = 16;
  return cfg;
}

// ---------- complexity (Fig. 1) -------------------------------------------------

TEST(Complexity, ScalingExponents) {
  // Axisymmetric: O(L^3 T + L^4); doubling L at fixed T multiplies the
  // T-dominated regime by 8.
  const double t = 1e6;
  EXPECT_NEAR(axisymmetric_design_flops(200, t) /
                  axisymmetric_design_flops(100, t),
              8.0, 0.1);
  EXPECT_NEAR(anisotropic_design_flops(200, t) /
                  anisotropic_design_flops(100, t),
              16.0, 0.5);
  // At T = 1 the L^6 term dominates the anisotropic cost.
  EXPECT_NEAR(anisotropic_design_flops(200, 1) /
                  anisotropic_design_flops(100, 1),
              64.0, 1.0);
}

TEST(Complexity, AnisotropicCostsMoreThanAxisymmetric) {
  EXPECT_GT(anisotropic_design_flops(720, 30295.0),
            axisymmetric_design_flops(720, 30295.0));
}

TEST(Complexity, HeadlineResolutionFactor) {
  // 28x spatial and 8760x temporal (hourly vs annual) -> 245,280x.
  EXPECT_DOUBLE_EQ(paper_headline_factor(), 245280.0);
  // Our resolution_factor reproduces it: L 5219 vs ~186 (100 km), hourly vs
  // annual (8760 steps/yr vs 1).
  EXPECT_NEAR(resolution_factor(5219, 8760, 186, 1), 245280.0, 3000.0);
}

TEST(Complexity, RejectsBadInputs) {
  EXPECT_THROW(axisymmetric_design_flops(0, 10.0), InvalidArgument);
  EXPECT_THROW(resolution_factor(0, 1, 1, 1), InvalidArgument);
}

// ---------- emulator construction -------------------------------------------------

TEST(Emulator, RejectsBadConfig) {
  // Both emulators share one config check.
  const auto expect_rejected = [](const EmulatorConfig& cfg) {
    EXPECT_THROW(ClimateEmulator{cfg}, InvalidArgument);
    EXPECT_THROW(MultiVariateEmulator{cfg}, InvalidArgument);
  };
  EmulatorConfig cfg;
  cfg.band_limit = 2;
  expect_rejected(cfg);
  cfg = EmulatorConfig{};
  cfg.ar_order = 0;
  expect_rejected(cfg);
  cfg = EmulatorConfig{};
  cfg.harmonics = -1;
  expect_rejected(cfg);
  cfg = EmulatorConfig{};
  cfg.steps_per_year = 0;
  expect_rejected(cfg);
}

TEST(Emulator, CannotEmulateUntrained) {
  ClimateEmulator emulator(tiny_config());
  EXPECT_FALSE(emulator.is_trained());
  const std::vector<double> forcing(10, 1.0);
  EXPECT_THROW(emulator.emulate(10, 1, forcing, 1), InvalidArgument);
}

TEST(Emulator, TrainRejectsMismatchedResolution) {
  // Both trainers share one set of checks. A tau = 12 config on tau = 48
  // data would also run out of forcing; tau = 24 data under the tau = 48
  // config has forcing to spare, so only the resolution check can reject it.
  climate::SyntheticEsmConfig half_rate = tiny_esm();
  half_rate.steps_per_year = 24;
  EmulatorConfig coarse = tiny_config();
  coarse.steps_per_year = 12;
  const std::pair<climate::SyntheticEsmConfig, EmulatorConfig> cases[] = {
      {tiny_esm(), coarse}, {half_rate, tiny_config()}};
  for (const auto& [esm_cfg, cfg] : cases) {
    const auto esm = climate::generate_synthetic_esm(esm_cfg);
    ClimateEmulator emulator(cfg);
    EXPECT_THROW(emulator.train(esm.data, esm.forcing), InvalidArgument)
        << "data tau " << esm_cfg.steps_per_year;
    MultiVariateEmulator joint(cfg);
    EXPECT_THROW(joint.train({&esm.data}, esm.forcing), InvalidArgument)
        << "data tau " << esm_cfg.steps_per_year;
  }
}

// ---------- training -----------------------------------------------------------------

class TrainedEmulator : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    esm_ = new climate::SyntheticEsm(climate::generate_synthetic_esm(tiny_esm()));
    emulator_ = new ClimateEmulator(tiny_config());
    report_ = new TrainReport(emulator_->train(esm_->data, esm_->forcing));
  }
  static void TearDownTestSuite() {
    delete report_;
    delete emulator_;
    delete esm_;
    report_ = nullptr;
    emulator_ = nullptr;
    esm_ = nullptr;
  }
  static climate::SyntheticEsm* esm_;
  static ClimateEmulator* emulator_;
  static TrainReport* report_;
};

climate::SyntheticEsm* TrainedEmulator::esm_ = nullptr;
ClimateEmulator* TrainedEmulator::emulator_ = nullptr;
TrainReport* TrainedEmulator::report_ = nullptr;

TEST_F(TrainedEmulator, ReportsStageTimings) {
  EXPECT_TRUE(emulator_->is_trained());
  EXPECT_GT(report_->trend_seconds, 0.0);
  EXPECT_GT(report_->sht_seconds, 0.0);
  EXPECT_GT(report_->ar_seconds, 0.0);
  EXPECT_GT(report_->total_seconds, 0.0);
  EXPECT_EQ(report_->innovation_samples,
            2 * (4 * 48 - tiny_config().ar_order));
}

TEST_F(TrainedEmulator, ModelShapesMatchConfig) {
  EXPECT_EQ(emulator_->trend_models().size(), 9u * 16u);
  EXPECT_EQ(emulator_->ar_models().size(), 64u);  // L^2 = 8^2
  EXPECT_EQ(emulator_->cholesky_factor().rows(), 64);
  EXPECT_EQ(emulator_->nugget_variance().size(), 9u * 16u);
}

TEST_F(TrainedEmulator, TrendSigmaPositive) {
  for (const auto& tm : emulator_->trend_models()) {
    EXPECT_GT(tm.sigma, 0.0);
    EXPECT_GE(tm.rho, 0.0);
    EXPECT_LT(tm.rho, 1.0);
  }
}

TEST_F(TrainedEmulator, ArCoefficientsReflectWeatherPersistence) {
  // The synthetic truth evolves coefficients with AR(1) ~ true_ar1 at l=1;
  // the fitted AR sum for low-degree coefficients should show comparable
  // persistence.
  const auto& ar = emulator_->ar_models();
  // Packed index 1..3 are the degree-1 coefficients.
  double phi_sum = 0.0;
  for (index_t c = 1; c <= 3; ++c) {
    for (double p : ar[static_cast<std::size_t>(c)].phi) phi_sum += p;
  }
  phi_sum /= 3.0;
  EXPECT_NEAR(phi_sum, esm_->true_ar1, 0.25);
}

TEST_F(TrainedEmulator, FactorIsLowerTriangularAndFinite) {
  const auto& v = emulator_->cholesky_factor();
  for (index_t i = 0; i < v.rows(); ++i) {
    EXPECT_GT(v(i, i), 0.0);
    for (index_t j = i + 1; j < v.cols(); ++j) EXPECT_EQ(v(i, j), 0.0);
    for (index_t j = 0; j <= i; ++j) EXPECT_TRUE(std::isfinite(v(i, j)));
  }
}

TEST_F(TrainedEmulator, EmulationIsDeterministicInSeed) {
  const auto a = emulator_->emulate(24, 1, esm_->forcing, 7);
  const auto b = emulator_->emulate(24, 1, esm_->forcing, 7);
  EXPECT_EQ(a.raw(), b.raw());
  const auto c = emulator_->emulate(24, 1, esm_->forcing, 8);
  EXPECT_NE(a.raw(), c.raw());
}

TEST_F(TrainedEmulator, EmulationMatchesTrainingMoments) {
  const auto emu = emulator_->emulate(esm_->data.num_steps(), 2,
                                      esm_->forcing, 99);
  const auto report = evaluate_consistency(esm_->data, emu, 8);
  EXPECT_LT(std::abs(report.pooled.mean_a - report.pooled.mean_b), 1.5);
  EXPECT_LT(std::abs(report.pooled.sd_a - report.pooled.sd_b),
            0.25 * report.pooled.sd_a);
  EXPECT_TRUE(report.consistent(0.5))
      << "mean_rmse=" << report.mean_field_rel_rmse
      << " sd_rmse=" << report.sd_field_rel_rmse
      << " acf=" << report.acf_mad
      << " spec=" << report.spectrum_log10_mad;
}

TEST_F(TrainedEmulator, ScenarioForcingShiftsTrend) {
  // Emulate under a strong ramp vs flat forcing: means must diverge.
  const std::vector<double> flat = climate::scenario_forcing(4, 1.0, 0.0);
  const std::vector<double> ramp = climate::scenario_forcing(4, 1.0, 2.0);
  const auto cool = emulator_->emulate(4 * 48, 1, flat, 5);
  const auto warm = emulator_->emulate(4 * 48, 1, ramp, 5);
  const auto cool_series = cool.time_series(0, 4, 0);
  const auto warm_series = warm.time_series(0, 4, 0);
  double cool_tail = 0.0;
  double warm_tail = 0.0;
  for (index_t t = 3 * 48; t < 4 * 48; ++t) {
    cool_tail += cool_series[static_cast<std::size_t>(t)];
    warm_tail += warm_series[static_cast<std::size_t>(t)];
  }
  EXPECT_GT(warm_tail - cool_tail, 48.0 * 1.0);  // >= ~1 K warmer tail
}

TEST_F(TrainedEmulator, InconsistentDatasetFailsConsistency) {
  // A shuffled-amplitude surrogate: same grid, wrong variance structure.
  auto broken = emulator_->emulate(esm_->data.num_steps(), 2, esm_->forcing, 3);
  for (auto& v : broken.raw()) v = 280.0 + (v - 280.0) * 3.0;
  const auto report = evaluate_consistency(esm_->data, broken, 8);
  EXPECT_FALSE(report.consistent(0.35));
}

// ---------- serialization ---------------------------------------------------------

TEST_F(TrainedEmulator, SerializationRoundTripsExactly) {
  const std::string path = ::testing::TempDir() + "/exaclim_model.bin";
  save_emulator(*emulator_, path);
  const ClimateEmulator loaded = load_emulator(path);
  EXPECT_TRUE(loaded.is_trained());
  EXPECT_EQ(loaded.config().band_limit, 8);
  // Same seed, same forcing -> identical emulations.
  const auto a = emulator_->emulate(24, 1, esm_->forcing, 31);
  const auto b = loaded.emulate(24, 1, esm_->forcing, 31);
  EXPECT_EQ(a.raw(), b.raw());
  std::filesystem::remove(path);
}

TEST(Serialize, RejectsUntrainedAndGarbage) {
  ClimateEmulator untrained(tiny_config());
  EXPECT_THROW(save_emulator(untrained, "/tmp/x.bin"), InvalidArgument);
  const std::string path = ::testing::TempDir() + "/exaclim_garbage.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "garbage";
  }
  EXPECT_THROW(load_emulator(path), IoError);
  std::filesystem::remove(path);
}

// ---------- precision variants in training (Fig. 4 logic) --------------------------

class EmulatorVariants
    : public ::testing::TestWithParam<linalg::PrecisionVariant> {};

TEST_P(EmulatorVariants, TrainingSucceedsAndStaysConsistent) {
  const auto esm = climate::generate_synthetic_esm(tiny_esm());
  EmulatorConfig cfg = tiny_config();
  cfg.cholesky_variant = GetParam();
  ClimateEmulator emulator(cfg);
  emulator.train(esm.data, esm.forcing);
  const auto emu = emulator.emulate(esm.data.num_steps(), 2, esm.forcing, 11);
  const auto report = evaluate_consistency(esm.data, emu, 8);
  // The paper's Fig. 4 claim: emulations remain statistically consistent
  // across DP, DP/SP, DP/HP factorizations of U-hat.
  EXPECT_TRUE(report.consistent(0.5)) << linalg::variant_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Sweep, EmulatorVariants,
                         ::testing::Values(linalg::PrecisionVariant::DP,
                                           linalg::PrecisionVariant::DP_SP,
                                           linalg::PrecisionVariant::DP_SP_HP,
                                           linalg::PrecisionVariant::DP_HP));

}  // namespace
