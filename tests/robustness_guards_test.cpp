// Robustness guards: input validation & quarantine, memory budgets with
// graceful degradation, the hang fault kind, checkpoint sync policies, and
// the scheduler stall watchdog. The common acceptance shape: bad input, an
// over-budget allocation, or a hung task must each end in a structured error
// naming the field / site / task — never a crash, abort, or wedged process.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <future>
#include <limits>
#include <utility>
#include <vector>

#include "climate/synthetic_esm.hpp"
#include "climate/validate.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/io.hpp"
#include "common/memory.hpp"
#include "core/emulator.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/failure.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"

namespace {

using namespace exaclim;

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

core::EmulatorConfig tiny_config() {
  core::EmulatorConfig cfg;
  cfg.band_limit = 8;
  cfg.ar_order = 2;
  cfg.harmonics = 2;
  cfg.steps_per_year = 48;
  cfg.tile_size = 16;
  return cfg;
}

// ---------- input validation & quarantine -------------------------------------

TEST(Validation, NanCellThrowsNamingCoordinates) {
  auto esm = climate::generate_synthetic_esm(tiny_esm());
  const index_t nlon = esm.data.grid().nlon;
  // Poison one known cell: ensemble 1, step 5, lat 2, lon 3.
  esm.data.field(1, 5)[static_cast<std::size_t>(2 * nlon + 3)] =
      std::numeric_limits<double>::quiet_NaN();
  try {
    climate::validate_dataset(std::as_const(esm.data));
    FAIL() << "NaN cell passed validation";
  } catch (const climate::ValidationError& e) {
    ASSERT_FALSE(e.issues().empty());
    const auto& issue = e.issues().front();
    EXPECT_EQ(issue.kind, climate::ValidationIssueKind::NonFinite);
    EXPECT_EQ(issue.ensemble, 1);
    EXPECT_EQ(issue.step, 5);
    EXPECT_EQ(issue.lat, 2);
    EXPECT_EQ(issue.lon, 3);
    EXPECT_EQ(e.total_flagged(), 1u);
  }
}

TEST(Validation, OutOfRangeScreeningHonorsBounds) {
  auto esm = climate::generate_synthetic_esm(tiny_esm());
  esm.data.field(0, 0)[0] = 1e6;  // physically absurd Kelvin
  // Default options disable range screening: an absurd-but-finite value
  // passes so non-Kelvin variables keep working out of the box.
  EXPECT_NO_THROW(climate::validate_dataset(std::as_const(esm.data)));
  climate::ValidationOptions opts;
  opts.min_value = 150.0;
  opts.max_value = 350.0;
  EXPECT_THROW(climate::validate_dataset(std::as_const(esm.data), opts),
               climate::ValidationError);
}

TEST(Validation, QuarantineImputesAndTrainingSucceeds) {
  auto esm = climate::generate_synthetic_esm(tiny_esm());
  const index_t nlon = esm.data.grid().nlon;
  esm.data.field(0, 2)[static_cast<std::size_t>(1 * nlon + 1)] =
      std::numeric_limits<double>::quiet_NaN();
  esm.data.field(1, 7)[static_cast<std::size_t>(4 * nlon + 9)] =
      std::numeric_limits<double>::infinity();

  core::EmulatorConfig cfg = tiny_config();
  cfg.quarantine = true;
  core::ClimateEmulator emulator(cfg);
  const auto report = emulator.train(esm.data, esm.forcing);
  EXPECT_EQ(report.validation_flagged, 2);
  EXPECT_EQ(report.validation_quarantined, 2);
  EXPECT_TRUE(emulator.is_trained());

  // Without quarantine the same dataset is rejected up front.
  core::ClimateEmulator strict(tiny_config());
  EXPECT_THROW(strict.train(esm.data, esm.forcing),
               climate::ValidationError);
}

TEST(Validation, ConstantFieldFatalEvenWithQuarantine) {
  auto esm = climate::generate_synthetic_esm(tiny_esm());
  auto f = esm.data.field(0, 0);
  for (auto& v : f) v = 5.0;  // sigma of this field would be exactly zero
  climate::ValidationOptions opts;
  opts.quarantine = true;
  EXPECT_THROW(climate::validate_dataset(esm.data, opts),
               climate::ValidationError);
}

// ---------- memory budget & degradation ladder --------------------------------

/// Restores the process-wide budget no matter how the test exits.
struct BudgetGuard {
  BudgetGuard() { common::MemoryBudget::instance().reset_for_test(); }
  ~BudgetGuard() { common::MemoryBudget::instance().reset_for_test(); }
};

TEST(MemoryBudget, OffDiagonalTilesDegradeToFp16UnderPressure) {
  BudgetGuard guard;
  // n=33, nb=16 gives tile rows of 16,16,1. The three full 16x16 tiles cost
  // 3*2048 = 6144 bytes at FP64; the ragged row's 1x16 off-diagonal tiles
  // (128 bytes FP64, 32 at FP16) and the 1x1 diagonal (8 bytes) follow. A
  // 6240-byte budget admits the full tiles, forces both ragged off-diagonal
  // tiles down to FP16 (6144+128 > 6240), and still fits the final diagonal
  // at FP64: construction succeeds with exactly two degraded tiles.
  common::MemoryBudget::instance().set_budget(6240);
  linalg::PrecisionMap map;
  map.nt = 3;
  map.tiles.assign(6, linalg::Precision::FP64);
  linalg::TiledSymmetricMatrix a(33, 16, map);
  EXPECT_EQ(a.tiles_degraded_for_memory(), 2);
  EXPECT_EQ(a.tile(2, 0).precision(), linalg::Precision::FP16);
  EXPECT_EQ(a.tile(2, 1).precision(), linalg::Precision::FP16);
  // Diagonals are never degraded.
  EXPECT_EQ(a.tile(0, 0).precision(), linalg::Precision::FP64);
  EXPECT_EQ(a.tile(2, 2).precision(), linalg::Precision::FP64);
  EXPECT_GT(common::MemoryBudget::instance().peak(), 0u);
}

TEST(MemoryBudget, ExhaustedBudgetThrowsResourceErrorNamingSite) {
  BudgetGuard guard;
  common::MemoryBudget::instance().set_budget(1000);  // < one 16x16 FP64 tile
  linalg::PrecisionMap map;
  map.nt = 2;
  map.tiles.assign(3, linalg::Precision::FP64);
  try {
    linalg::TiledSymmetricMatrix a(32, 16, map);
    FAIL() << "over-budget tile matrix was constructed";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.site(), "tile-matrix");
    EXPECT_EQ(e.budget_bytes(), 1000u);
    EXPECT_GE(e.requested_bytes(), 2048u);
  }
}

TEST(MemoryBudget, ZeroBudgetMeansUnlimited) {
  BudgetGuard guard;
  linalg::PrecisionMap map;
  map.nt = 2;
  map.tiles.assign(3, linalg::Precision::FP64);
  linalg::TiledSymmetricMatrix a(32, 16, map);
  EXPECT_EQ(a.tiles_degraded_for_memory(), 0);
}

TEST(MemoryBudget, TrainReportCountsTilesNarrowedForMemory) {
  // L = 8 gives n = 64; tile size 48 splits it into tile rows of 48 and 16.
  // A first, unbudgeted train leaves the long-lived charges (the scratch
  // arena) in place, so the budget below is exact: room for the two diagonal
  // tiles at FP64 but for tile (1,0) only at FP16.
  const auto esm = climate::generate_synthetic_esm(tiny_esm());
  core::EmulatorConfig cfg = tiny_config();
  cfg.tile_size = 48;
  cfg.cholesky_variant = linalg::PrecisionVariant::DP;
  cfg.threads = 1;
  // With threads = 1 only the calling thread runs Cholesky tasks, and only
  // its scratch arena trims under pressure. BudgetGuard's reset_for_test()
  // forgets live arena charges, and trimming an arena charged before such a
  // reset wraps charged() around; a fresh thread's arena is charged after
  // every earlier reset, whatever ran before in this process.
  std::async(std::launch::async, [&] {
    core::ClimateEmulator unbudgeted(cfg);
    EXPECT_EQ(
        unbudgeted.train(esm.data, esm.forcing).tiles_degraded_for_memory, 0);

    struct LiftBudget {
      ~LiftBudget() { common::MemoryBudget::instance().set_budget(0); }
    } lift;
    auto& budget = common::MemoryBudget::instance();
    budget.set_budget(budget.charged() + 48 * 48 * 8 + 16 * 48 * 2 +
                      16 * 16 * 8);
    core::ClimateEmulator emulator(cfg);
    const auto report = emulator.train(esm.data, esm.forcing);
    EXPECT_EQ(report.tiles_degraded_for_memory, 1);
    EXPECT_TRUE(emulator.is_trained());
  }).get();
}

// ---------- fault plan & sync policy parsing ----------------------------------

TEST(FaultPlanSpec, HangKeysParse) {
  const auto plan = common::FaultPlan::parse("seed=9;hang=1;hang-ms=500");
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.hang_p, 1.0);
  EXPECT_EQ(plan.hang_ms, 500);
  EXPECT_TRUE(plan.any());
}

TEST(FaultPlanSpec, UnknownKeyRejected) {
  EXPECT_THROW(common::FaultPlan::parse("hagn=1"), InvalidArgument);
  EXPECT_THROW(common::FaultPlan::parse("numerical=1;bogus-key=3"),
               InvalidArgument);
}

TEST(FaultPlanSpec, NonPositiveHangDurationRejected) {
  EXPECT_THROW(common::FaultPlan::parse("hang=1;hang-ms=0"), InvalidArgument);
}

TEST(SyncPolicy, ParseAndNameRoundTrip) {
  using common::SyncPolicy;
  EXPECT_EQ(common::parse_sync_policy("full"), SyncPolicy::Full);
  EXPECT_EQ(common::parse_sync_policy("data"), SyncPolicy::Data);
  EXPECT_EQ(common::parse_sync_policy("none"), SyncPolicy::None);
  for (SyncPolicy p :
       {SyncPolicy::Full, SyncPolicy::Data, SyncPolicy::None}) {
    EXPECT_EQ(common::parse_sync_policy(common::sync_policy_name(p)), p);
  }
  EXPECT_THROW(common::parse_sync_policy("fsync"), InvalidArgument);
}

// ---------- stall watchdog ----------------------------------------------------

using namespace exaclim::runtime;

Task make_task(std::function<void()> fn, std::vector<DataAccess> accesses) {
  Task t;
  t.fn = std::move(fn);
  t.accesses = std::move(accesses);
  return t;
}

struct InjectorGuard {
  ~InjectorGuard() { common::FaultInjector::instance().disarm(); }
};

TEST(StallWatchdog, InjectedHangEndsInStructuredStallError) {
  InjectorGuard guard;
  // Every task hangs (cooperatively, abortable) for far longer than the
  // watchdog window: the run must dump worker state once and then terminate
  // with StallError — not wedge until the hang expires.
  common::FaultInjector::instance().arm(
      common::FaultPlan::parse("seed=1;hang=1;hang-ms=30000"));
  TaskGraph g;
  for (int i = 0; i < 4; ++i) {
    const auto h = g.create_handle("x" + std::to_string(i));
    g.submit(make_task([] {}, {{h, Access::Write}}));
  }
  SchedulerOptions opt;
  opt.threads = 2;
  opt.stall_timeout_seconds = 0.15;
  opt.stall_grace_seconds = 0.15;
  EXPECT_THROW(execute(g, opt), StallError);
  EXPECT_GT(common::FaultInjector::instance().counts().hangs, 0);
}

TEST(StallWatchdog, HealthyRunNeverTriggers) {
  TaskGraph g;
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    const auto h = g.create_handle("y" + std::to_string(i));
    g.submit(make_task([&ran] { ran.fetch_add(1); }, {{h, Access::Write}}));
  }
  SchedulerOptions opt;
  opt.threads = 4;
  opt.stall_timeout_seconds = 30.0;
  const auto stats = execute(g, opt);
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(stats.stall_dumps, 0);
  EXPECT_TRUE(stats.finished_all);
}

TEST(StallWatchdog, ShortHangRecoversWithoutStallError) {
  InjectorGuard guard;
  // A hang shorter than the watchdog window delays tasks but completes
  // normally — the watchdog only escalates on genuine stalls.
  common::FaultInjector::instance().arm(
      common::FaultPlan::parse("seed=2;hang=1;hang-ms=20"));
  TaskGraph g;
  std::atomic<int> ran{0};
  for (int i = 0; i < 4; ++i) {
    const auto h = g.create_handle("z" + std::to_string(i));
    g.submit(make_task([&ran] { ran.fetch_add(1); }, {{h, Access::Write}}));
  }
  SchedulerOptions opt;
  opt.threads = 2;
  opt.stall_timeout_seconds = 10.0;
  const auto stats = execute(g, opt);
  EXPECT_EQ(ran.load(), 4);
  EXPECT_EQ(stats.stall_dumps, 0);
}

}  // namespace
