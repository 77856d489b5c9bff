// The training factor step's jitter ladder (core::train_variables). U-hat is
// proven definite only by the tiled Cholesky that factors it; a POTRF
// failure the factorization cannot recover climbs a whole-matrix diagonal
// jitter ladder and factors again. On rank-deficient data (R (T - P) < L^2)
// the mixed-precision variants need it and DP does not; no other failure is
// retried, and a run killed on an upper rung resumes to the same model.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "climate/synthetic_esm.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"
#include "core/consistency.hpp"
#include "core/emulator.hpp"
#include "core/multivariate.hpp"
#include "core/serialize.hpp"
#include "runtime/failure.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

namespace {

using namespace exaclim;
using common::FaultInjector;
using common::FaultPlan;
using linalg::PrecisionVariant;

/// Disarms the global injector when a test exits, pass or fail.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().disarm(); }
};

struct TempFile {
  explicit TempFile(const std::string& name)
      : path(::testing::TempDir() + "/" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

/// 17 x 32 grid, L 16, tau 16, 2 years, R 2: R (T - P) = 58 innovation
/// samples for L^2 = 256 coefficients, so U-hat has rank 58 plus the
/// deficiency jitter. Tile 32 gives an 8 x 8 tile grid.
climate::SyntheticEsmConfig deficient_esm(std::uint64_t seed = 4242) {
  climate::SyntheticEsmConfig cfg;
  cfg.band_limit = 16;
  cfg.grid = {17, 32};
  cfg.num_years = 2;
  cfg.steps_per_year = 16;
  cfg.num_ensembles = 2;
  cfg.seed = seed;
  return cfg;
}

core::EmulatorConfig deficient_config(PrecisionVariant variant) {
  core::EmulatorConfig cfg;
  cfg.band_limit = 16;
  cfg.ar_order = 3;
  cfg.harmonics = 5;
  cfg.steps_per_year = 16;
  cfg.tile_size = 32;
  cfg.cholesky_variant = variant;
  return cfg;
}

const climate::SyntheticEsm& deficient_data() {
  static const climate::SyntheticEsm esm =
      climate::generate_synthetic_esm(deficient_esm());
  return esm;
}

std::vector<unsigned char> saved_bytes(const core::ClimateEmulator& emulator,
                                       const std::string& name) {
  const TempFile model(name);
  core::save_emulator(emulator, model.path);
  return common::read_file_bytes(model.path);
}

TEST(FactorLadder, RankDeficientTrainingSucceedsForEveryVariant) {
  const auto& esm = deficient_data();
  // DP factors U-hat as prepared, so its jitter is the deficiency jitter
  // alone: the base every rung is a power of ten of.
  core::ClimateEmulator dp(deficient_config(PrecisionVariant::DP));
  const double base = dp.train(esm.data, esm.forcing).covariance_jitter;
  ASSERT_GT(base, 0.0);
  for (const PrecisionVariant variant : linalg::kAllVariants) {
    for (const bool ft : {false, true}) {
      SCOPED_TRACE(linalg::variant_name(variant) +
                   (ft ? " fault tolerance on" : " fault tolerance off"));
      core::EmulatorConfig cfg = deficient_config(variant);
      cfg.fault_tolerance = ft;
      core::ClimateEmulator emulator(cfg);
      const core::TrainReport report = emulator.train(esm.data, esm.forcing);
      EXPECT_TRUE(report.covariance_deficient);
      if (variant == PrecisionVariant::DP) {
        EXPECT_EQ(report.covariance_rung, 0);
      } else {
        // The fp32/fp16 tiles' rounding outweighs a 1e-10 relative jitter
        // on a rank-58 matrix; the ladder has to lift the diagonal.
        EXPECT_GT(report.covariance_rung, 0);
      }
      EXPECT_LE(report.covariance_rung, runtime::kFactorJitterRungs);
      // Rung k adds base * 10^(k - 1), by repeated multiplication, to the
      // diagonal that already holds the deficiency jitter.
      double rung_jitter = 0.0;
      for (index_t k = 1; k <= report.covariance_rung; ++k) {
        rung_jitter = k == 1 ? base : rung_jitter * 10.0;
      }
      EXPECT_EQ(report.covariance_jitter, base + rung_jitter);
      const linalg::Matrix& v = emulator.cholesky_factor();
      for (index_t i = 0; i < v.rows(); ++i) {
        ASSERT_GT(v(i, i), 0.0) << i;
        for (index_t j = 0; j <= i; ++j) ASSERT_TRUE(std::isfinite(v(i, j)));
      }
    }
  }
}

TEST(FactorLadder, DpHpEmulationConsistentWhereDpIs) {
  // The jitter a DP/HP model climbs to must not cost it the consistency the
  // DP model of the same data has (core_test's Fig. 4 gate).
  for (const std::uint64_t seed : {4242u, 7u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const auto esm = climate::generate_synthetic_esm(deficient_esm(seed));
    core::ClimateEmulator dp(deficient_config(PrecisionVariant::DP));
    dp.train(esm.data, esm.forcing);
    const auto dp_report = core::evaluate_consistency(
        esm.data, dp.emulate(esm.data.num_steps(), 2, esm.forcing, 11), 16);
    ASSERT_TRUE(dp_report.consistent(0.5));
    core::ClimateEmulator hp(deficient_config(PrecisionVariant::DP_HP));
    EXPECT_GT(hp.train(esm.data, esm.forcing).covariance_rung, 0);
    const auto hp_report = core::evaluate_consistency(
        esm.data, hp.emulate(esm.data.num_steps(), 2, esm.forcing, 11), 16);
    EXPECT_TRUE(hp_report.consistent(0.5))
        << "mean_rmse=" << hp_report.mean_field_rel_rmse
        << " sd_rmse=" << hp_report.sd_field_rel_rmse
        << " acf=" << hp_report.acf_mad
        << " spec=" << hp_report.spectrum_log10_mad;
  }
}

TEST(FactorLadder, PotrfFailingOnEveryRungThrowsAfterTheLast) {
  // An injected POTRF fault fires on every attempt, so no jitter helps: the
  // first factorization and all kFactorJitterRungs rungs fail, and the last
  // rung's TaskFailure propagates.
  const auto& esm = deficient_data();
  InjectorGuard guard;
  FaultInjector::instance().arm(
      FaultPlan::parse("seed=1;numerical=1;kind=POTRF;at=0,0"));
  core::ClimateEmulator emulator(deficient_config(PrecisionVariant::DP));
  try {
    emulator.train(esm.data, esm.forcing);
    FAIL() << "expected TaskFailure";
  } catch (const runtime::TaskFailure& e) {
    EXPECT_EQ(e.kind(), "POTRF");
    EXPECT_EQ(e.row(), 0);
    EXPECT_EQ(e.col(), 0);
  }
  EXPECT_EQ(FaultInjector::instance().counts().numerical,
            runtime::kFactorJitterRungs + 1);
  EXPECT_FALSE(emulator.is_trained());
}

TEST(FactorLadder, TrsmFaultIsNotRetried) {
  // Jitter cannot mend a TRSM failure: it propagates from the first
  // factorization, with or without the per-tile recovery.
  const auto& esm = deficient_data();
  for (const bool ft : {false, true}) {
    SCOPED_TRACE(ft ? "fault tolerance on" : "fault tolerance off");
    InjectorGuard guard;
    FaultInjector::instance().arm(
        FaultPlan::parse("seed=1;numerical=1;kind=TRSM;at=1,0"));
    core::EmulatorConfig cfg = deficient_config(PrecisionVariant::DP);
    cfg.fault_tolerance = ft;
    core::ClimateEmulator emulator(cfg);
    try {
      emulator.train(esm.data, esm.forcing);
      FAIL() << "expected TaskFailure";
    } catch (const runtime::TaskFailure& e) {
      EXPECT_EQ(e.kind(), "TRSM");
      EXPECT_EQ(e.row(), 1);
      EXPECT_EQ(e.col(), 0);
    }
    EXPECT_EQ(FaultInjector::instance().counts().numerical, 1);
  }
}

TEST(FactorLadder, RunKilledOnAnUpperRungResumesToTheSameModel) {
  // DP/SP climbs the ladder on this data. A TRSM fault in the last panel
  // fires only in a factorization that got past POTRF(6, 6), so it kills
  // the run on an upper rung, after that rung committed checkpoints. The
  // resumed run reads the checkpoint on its first attempt only.
  const auto& esm = deficient_data();
  const core::EmulatorConfig cfg = deficient_config(PrecisionVariant::DP_SP);
  core::ClimateEmulator plain(cfg);
  const core::TrainReport plain_report = plain.train(esm.data, esm.forcing);
  ASSERT_GT(plain_report.covariance_rung, 0);
  const auto want = saved_bytes(plain, "ladder_plain.bin");

  const TempFile ckpt("ladder_kill.ckpt");
  {
    InjectorGuard guard;
    FaultInjector::instance().arm(
        FaultPlan::parse("seed=1;numerical=1;kind=TRSM;at=7,6"));
    core::EmulatorConfig killed = cfg;
    killed.checkpoint_path = ckpt.path;
    killed.checkpoint_every = 8;
    core::ClimateEmulator doomed(killed);
    EXPECT_THROW(doomed.train(esm.data, esm.forcing), runtime::TaskFailure);
    EXPECT_EQ(FaultInjector::instance().counts().numerical, 1);
  }

  core::EmulatorConfig resumed_cfg = cfg;
  resumed_cfg.resume_path = ckpt.path;
  core::ClimateEmulator resumed(resumed_cfg);
  const core::TrainReport report = resumed.train(esm.data, esm.forcing);
  EXPECT_TRUE(report.resumed_from_checkpoint);
  // The checkpoint holds the killed rung's tiles, diagonal jitter included,
  // and they factor: a checkpoint of the first factorization, which fails
  // POTRF, would have sent the resumed run up the ladder again.
  EXPECT_EQ(report.covariance_rung, 0);
  EXPECT_TRUE(saved_bytes(resumed, "ladder_resumed.bin") == want)
      << "resumed model differs from the uninterrupted one";
}

TEST(FactorLadder, ResumedFailingFactorizationClimbsFromFreshTiles) {
  // A commit makes four I/O calls, and from the fifth on every call fails,
  // so the file keeps the first commit, a few tasks into the first
  // factorization, which fails at POTRF(2, 2). Resuming replays that
  // failure; the ladder must then factor fresh tiles, not the checkpoint.
  const auto& esm = deficient_data();
  const core::EmulatorConfig cfg = deficient_config(PrecisionVariant::DP_SP);
  core::ClimateEmulator plain(cfg);
  const core::TrainReport plain_report = plain.train(esm.data, esm.forcing);
  ASSERT_GT(plain_report.covariance_rung, 0);
  const auto want = saved_bytes(plain, "ladder_plain0.bin");

  const TempFile ckpt("ladder_kill0.ckpt");
  {
    InjectorGuard guard;
    FaultInjector::instance().arm(FaultPlan::parse("io=5;io-mode=hard"));
    core::EmulatorConfig killed = cfg;
    killed.checkpoint_path = ckpt.path;
    killed.checkpoint_every = 4;
    core::ClimateEmulator doomed(killed);
    EXPECT_THROW(doomed.train(esm.data, esm.forcing), IoError);
  }

  core::EmulatorConfig resumed_cfg = cfg;
  resumed_cfg.resume_path = ckpt.path;
  core::ClimateEmulator resumed(resumed_cfg);
  const core::TrainReport report = resumed.train(esm.data, esm.forcing);
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.covariance_rung, plain_report.covariance_rung);
  EXPECT_TRUE(saved_bytes(resumed, "ladder_resumed0.bin") == want)
      << "resumed model differs from the uninterrupted one";
}

TEST(FactorLadder, JointTrainerClimbsTheLadder) {
  // V = 2: 512 joint coefficients from the same 58 samples.
  const auto data = climate::generate_bivariate_esm(deficient_esm(), 0.6);
  for (const PrecisionVariant variant :
       {PrecisionVariant::DP, PrecisionVariant::DP_SP}) {
    SCOPED_TRACE(linalg::variant_name(variant));
    core::MultiVariateEmulator joint(deficient_config(variant));
    const core::TrainReport report =
        joint.train({&data.primary, &data.secondary}, data.forcing);
    EXPECT_TRUE(report.covariance_deficient);
    if (variant == PrecisionVariant::DP) {
      EXPECT_EQ(report.covariance_rung, 0);
    } else {
      EXPECT_GT(report.covariance_rung, 0);
    }
    const auto emu = joint.emulate(8, 1, data.forcing, 3);
    for (const auto& var : emu) {
      for (const double x : var.raw()) ASSERT_TRUE(std::isfinite(x));
    }
  }
}

}  // namespace
