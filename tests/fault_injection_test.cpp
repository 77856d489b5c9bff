// Fault-injection acceptance matrix for the fault-tolerant tiled Cholesky:
// across seeds and fault classes {numerical, bitflip, transient, io}, every
// run must either complete with a factor matching the potrf_lower_ref_f64
// oracle or fail with a structured error (TaskFailure / IoError) — never
// silently corrupt the result. The injector (common/fault.hpp) draws every
// decision from an Rng stream split off the plan seed by a stable per-task
// key, so each cell of the matrix is reproducible.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>

#include "climate/dataset.hpp"
#include "climate/synthetic_esm.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"
#include "core/multivariate.hpp"
#include "linalg/kernels.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/failure.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::runtime;
using common::FaultInjector;
using common::FaultPlan;

/// Disarms the global injector when a test exits, pass or fail.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::instance().disarm(); }
};

linalg::Matrix decaying_spd(index_t n) {
  linalg::Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(static_cast<double>(i - j)) / 25.0);
    }
    a(i, i) += 1e-3;
  }
  return a;
}

constexpr index_t kN = 160;
constexpr index_t kNb = 40;
constexpr index_t kNt = 4;

linalg::TiledSymmetricMatrix make_tiled(const linalg::Matrix& a,
                                        linalg::PrecisionVariant variant) {
  return linalg::TiledSymmetricMatrix::from_dense(
      a, kNb, linalg::make_band_policy(kNt, variant));
}

/// Scalar-oracle check: the factor must match potrf_lower_ref_f64 of the
/// same dense matrix within `tol` (loose for jittered/low-precision runs).
void expect_matches_oracle(const linalg::TiledSymmetricMatrix& tiled,
                           const linalg::Matrix& a, double tol) {
  linalg::Matrix oracle = a;
  linalg::potrf_lower_ref_f64(oracle.data(), kN);
  const linalg::Matrix l = tiled.to_dense(/*lower_only=*/true);
  for (index_t i = 0; i < kN; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(l(i, j), oracle(i, j), tol) << i << "," << j;
    }
  }
}

const std::uint64_t kSeeds[] = {3, 7, 2026};

// ---------- numerical faults ------------------------------------------------

TEST(FaultMatrix, NumericalFaultsRecoverViaEscalation) {
  // A guaranteed NumericalError from every diagonal POTRF: with fault
  // tolerance on, each one must recover (FP64 tiles go straight to the
  // jitter ladder) and the factor must still match the oracle.
  const linalg::Matrix a = decaying_spd(kN);
  for (const auto seed : kSeeds) {
    InjectorGuard guard;
    FaultInjector::instance().arm(
        FaultPlan::parse("seed=" + std::to_string(seed) +
                         ";numerical=1;kind=POTRF"));
    auto tiled = make_tiled(a, linalg::PrecisionVariant::DP);
    RtCholeskyOptions opt;
    opt.ft.enabled = true;
    opt.ft.integrity_checks = true;
    const auto result = cholesky_tiled_parallel(tiled, opt);
    EXPECT_GT(FaultInjector::instance().counts().numerical, 0) << seed;
    EXPECT_GT(result.jitter_escalations, 0) << seed;
    // The jitter rungs perturb the diagonal by ~1e-10 * diag scale.
    expect_matches_oracle(tiled, a, 1e-5);
  }
}

TEST(FaultMatrix, NumericalFaultEscalatesPrecisionOnNarrowTiles) {
  // DP/HP stores off-band tiles in FP16; a faulted FP16 diagonal must first
  // widen (f16 -> f32 -> f64) before any jitter is considered.
  const linalg::Matrix a = decaying_spd(kN);
  for (const auto seed : kSeeds) {
    InjectorGuard guard;
    FaultInjector::instance().arm(
        FaultPlan::parse("seed=" + std::to_string(seed) +
                         ";numerical=1;kind=POTRF"));
    auto tiled = make_tiled(a, linalg::PrecisionVariant::DP_HP);
    RtCholeskyOptions opt;
    opt.ft.enabled = true;
    const auto result = cholesky_tiled_parallel(tiled, opt);
    EXPECT_GT(result.precision_escalations + result.jitter_escalations, 0)
        << seed;
    expect_matches_oracle(tiled, a, 5e-3);
  }
}

TEST(FaultMatrix, NumericalFaultWithoutToleranceIsStructured) {
  // Same fault, fault tolerance off: the run must fail with a TaskFailure
  // naming the task kind and tile, not a bare exception or a wrong factor.
  const linalg::Matrix a = decaying_spd(kN);
  for (const auto seed : kSeeds) {
    InjectorGuard guard;
    FaultInjector::instance().arm(
        FaultPlan::parse("seed=" + std::to_string(seed) +
                         ";numerical=1;kind=POTRF;at=0,0"));
    auto tiled = make_tiled(a, linalg::PrecisionVariant::DP);
    try {
      cholesky_tiled_parallel(tiled, {});
      FAIL() << "expected TaskFailure (seed " << seed << ")";
    } catch (const TaskFailure& e) {
      EXPECT_EQ(e.kind(), "POTRF");
      EXPECT_EQ(e.row(), 0);
      EXPECT_EQ(e.col(), 0);
      EXPECT_NE(std::string(e.what()).find("injected"), std::string::npos);
    }
  }
}

TEST(FaultMatrix, MultivariateTrainHonoursFaultTolerance) {
  // The joint trainer factors through the same EmulatorConfig mapping as the
  // univariate one: with fault tolerance on, a numerical fault in every
  // diagonal POTRF is recovered and training completes.
  climate::SyntheticEsmConfig esm;
  esm.band_limit = 4;
  esm.grid = {9, 16};
  esm.num_years = 2;
  esm.steps_per_year = 24;
  esm.num_ensembles = 2;
  const auto data = climate::generate_bivariate_esm(esm, 0.7);
  core::EmulatorConfig cfg;
  cfg.band_limit = 4;
  cfg.ar_order = 1;
  cfg.harmonics = 1;
  cfg.steps_per_year = 24;
  cfg.tile_size = 8;
  cfg.fault_tolerance = true;

  InjectorGuard guard;
  FaultInjector::instance().arm(
      FaultPlan::parse("seed=3;numerical=1;kind=POTRF"));
  core::MultiVariateEmulator emulator(cfg);
  core::TrainReport report;
  EXPECT_NO_THROW(
      report = emulator.train({&data.primary, &data.secondary}, data.forcing));
  EXPECT_GT(FaultInjector::instance().counts().numerical, 0);
  EXPECT_TRUE(emulator.is_trained());
  // The recoveries show up in the joint trainer's report too.
  EXPECT_GT(report.precision_escalations + report.jitter_escalations, 0);
}

// ---------- transient faults ------------------------------------------------

TEST(FaultMatrix, TransientFaultsRetryToBitIdenticalFactor) {
  // Transient faults fire before the task body runs, so the scheduler's
  // bounded retry must reproduce the fault-free factor bit for bit.
  const linalg::Matrix a = decaying_spd(kN);
  auto clean = make_tiled(a, linalg::PrecisionVariant::DP_HP);
  cholesky_tiled_parallel(clean, {});
  const linalg::Matrix l_ref = clean.to_dense(true);

  for (const auto seed : kSeeds) {
    InjectorGuard guard;
    FaultInjector::instance().arm(FaultPlan::parse(
        "seed=" + std::to_string(seed) + ";transient=0.5;repeats=2"));
    auto tiled = make_tiled(a, linalg::PrecisionVariant::DP_HP);
    const auto result = cholesky_tiled_parallel(tiled, {});
    EXPECT_GT(FaultInjector::instance().counts().transients, 0) << seed;
    EXPECT_GT(result.run.counters.transient_retries, 0) << seed;
    const linalg::Matrix l = tiled.to_dense(true);
    for (index_t i = 0; i < kN; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        ASSERT_EQ(l(i, j), l_ref(i, j)) << seed << ": " << i << "," << j;
      }
    }
  }
}

// ---------- bit flips -------------------------------------------------------

TEST(FaultMatrix, BitflipsAreDetectedNeverSilent) {
  // Payload corruption after a task completes: with CRC tile guards on, the
  // run either throws a structured INTEGRITY TaskFailure or — if no flip was
  // actually drawn — completes with an oracle-correct factor.
  const linalg::Matrix a = decaying_spd(kN);
  int detected = 0;
  for (const auto seed : kSeeds) {
    InjectorGuard guard;
    FaultInjector::instance().arm(
        FaultPlan::parse("seed=" + std::to_string(seed) + ";bitflip=0.3"));
    auto tiled = make_tiled(a, linalg::PrecisionVariant::DP);
    RtCholeskyOptions opt;
    opt.ft.integrity_checks = true;
    try {
      cholesky_tiled_parallel(tiled, opt);
      EXPECT_EQ(FaultInjector::instance().counts().bitflips, 0) << seed;
      expect_matches_oracle(tiled, a, 1e-10);
    } catch (const TaskFailure& e) {
      EXPECT_EQ(e.kind(), "INTEGRITY") << e.what();
      EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
      ++detected;
    }
  }
  // With p=0.3 over dozens of tasks, at least one seed must draw a flip.
  EXPECT_GT(detected, 0);
}

TEST(FaultMatrix, BitflipsWithoutGuardsStillBounded) {
  // Without integrity checks a flip is not detected — this test documents
  // that the *injector* itself is deterministic: same seed, same flips.
  const linalg::Matrix a = decaying_spd(kN);
  for (const auto seed : kSeeds) {
    index_t flips_first = -1;
    for (int rep = 0; rep < 2; ++rep) {
      InjectorGuard guard;
      FaultInjector::instance().arm(
          FaultPlan::parse("seed=" + std::to_string(seed) + ";bitflip=0.3"));
      auto tiled = make_tiled(a, linalg::PrecisionVariant::DP);
      cholesky_tiled_parallel(tiled, {});
      const index_t flips = FaultInjector::instance().counts().bitflips;
      if (rep == 0) {
        flips_first = flips;
      } else {
        EXPECT_EQ(flips, flips_first) << seed;
      }
    }
  }
}

// ---------- I/O faults ------------------------------------------------------

TEST(FaultMatrix, TransientIoFaultIsAbsorbedByRetry) {
  // The atomic writer retries transient failures with backoff: the artifact
  // must land intact even though the Nth primitive call failed.
  const std::string path = ::testing::TempDir() + "/exaclim_io_transient.bin";
  for (const auto seed : kSeeds) {
    InjectorGuard guard;
    FaultInjector::instance().arm(FaultPlan::parse(
        "seed=" + std::to_string(seed) + ";io=2;io-mode=transient"));
    const std::string payload = "fault matrix payload " + std::to_string(seed);
    common::atomic_write_file(path, payload.data(), payload.size());
    EXPECT_GT(FaultInjector::instance().counts().io, 0) << seed;
    FaultInjector::instance().disarm();
    const auto back = common::read_file_bytes(path);
    ASSERT_EQ(back.size(), payload.size()) << seed;
    EXPECT_EQ(std::string(back.begin(), back.end()), payload) << seed;
  }
  std::filesystem::remove(path);
}

/// A small dataset whose every value depends on `salt`.
climate::ClimateDataset salted_dataset(double salt) {
  climate::ClimateDataset ds(sht::GridShape{3, 4}, 5, 2, 5);
  for (std::size_t i = 0; i < ds.raw().size(); ++i) {
    ds.raw()[i] = salt + 0.25 * static_cast<double>(i);
  }
  return ds;
}

TEST(FaultMatrix, PersistentIoFaultFailsCleanAndAtomically) {
  // A hard I/O fault exhausts the retry budget: IoError propagates and the
  // destination keeps its previous contents (no torn write, no temp litter).
  // Datasets are saved through the same atomic writer, so the same holds
  // for `exaclim_cli generate` and `emulate` outputs.
  const std::string path = ::testing::TempDir() + "/exaclim_io_hard.bin";
  const std::string data_path =
      ::testing::TempDir() + "/exaclim_io_hard_data.bin";
  const std::string original = "previous generation";
  common::atomic_write_file(path, original.data(), original.size());
  salted_dataset(1.0).save(data_path);
  const auto data_original = common::read_file_bytes(data_path);
  for (const auto seed : kSeeds) {
    InjectorGuard guard;
    FaultInjector::instance().arm(FaultPlan::parse(
        "seed=" + std::to_string(seed) + ";io=1;io-mode=hard"));
    const std::string doomed = "never visible";
    EXPECT_THROW(
        common::atomic_write_file(path, doomed.data(), doomed.size()),
        IoError)
        << seed;
    EXPECT_THROW(salted_dataset(2.0).save(data_path), IoError) << seed;
    FaultInjector::instance().disarm();
    const auto back = common::read_file_bytes(path);
    EXPECT_EQ(std::string(back.begin(), back.end()), original) << seed;
    EXPECT_EQ(common::read_file_bytes(data_path), data_original) << seed;
    EXPECT_EQ(climate::ClimateDataset::load(data_path).raw(),
              salted_dataset(1.0).raw())
        << seed;
  }
  // No .tmp.* debris may survive a failed atomic write.
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    const std::string name = entry.path().filename().string();
    EXPECT_EQ(name.find("exaclim_io_hard.bin.tmp"), std::string::npos)
        << entry.path();
    EXPECT_EQ(name.find("exaclim_io_hard_data.bin.tmp"), std::string::npos)
        << entry.path();
  }
  std::filesystem::remove(path);
  std::filesystem::remove(data_path);
}

// ---------- spec parsing ----------------------------------------------------

TEST(FaultPlanSpec, ParseRoundTripsAndValidates) {
  const FaultPlan p = FaultPlan::parse(
      "seed=7;numerical=1;kind=POTRF;at=2,2;bitflip=0.05;transient=0.2;"
      "repeats=3;io=4;io-mode=hard");
  EXPECT_EQ(p.seed, 7u);
  EXPECT_DOUBLE_EQ(p.numerical_p, 1.0);
  EXPECT_EQ(p.task_kind, "POTRF");
  EXPECT_EQ(p.row, 2);
  EXPECT_EQ(p.col, 2);
  EXPECT_DOUBLE_EQ(p.bitflip_p, 0.05);
  EXPECT_DOUBLE_EQ(p.transient_p, 0.2);
  EXPECT_EQ(p.transient_repeats, 3);
  EXPECT_EQ(p.io_fail_nth, 4);
  EXPECT_FALSE(p.io_transient);
  EXPECT_TRUE(p.any());

  EXPECT_THROW(FaultPlan::parse("numerical=not-a-number"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("unknown-key=1"), InvalidArgument);
  EXPECT_THROW(FaultPlan::parse("at=5"), InvalidArgument);
}

}  // namespace
