// Emulator configuration.
#pragma once

#include <limits>
#include <string>

#include "common/io.hpp"
#include "linalg/precision_policy.hpp"
#include "runtime/verify_mode.hpp"
#include "stats/trend.hpp"

namespace exaclim::runtime {
struct RtCholeskyOptions;
struct SchedulerOptions;
}  // namespace exaclim::runtime

namespace exaclim::core {

struct EmulatorConfig {
  index_t band_limit = 16;      ///< L: spherical-harmonic truncation degree
  index_t ar_order = 3;         ///< P (paper uses 3)
  index_t harmonics = 5;        ///< K periodic terms in the trend (paper: 5)
  index_t steps_per_year = 64;  ///< tau (8760 hourly, 365 daily, 12 monthly)

  /// Precision variant for the Cholesky of the innovation covariance.
  linalg::PrecisionVariant cholesky_variant = linalg::PrecisionVariant::DP;
  index_t tile_size = 128;  ///< nb for the tiled solver
  unsigned threads = 0;     ///< 0 = hardware concurrency

  /// Input screening (climate::validate_dataset) before training. NaN/Inf
  /// and constant-field checks are always part of it; the range screen only
  /// engages when valid_min/valid_max are set to finite bounds.
  bool validate_input = true;
  /// Impute flagged cells (field-mean of valid cells) instead of failing.
  bool quarantine = false;
  double valid_min = -std::numeric_limits<double>::infinity();
  double valid_max = std::numeric_limits<double>::infinity();

  /// Task-level fault tolerance for the tiled Cholesky: retry with precision
  /// escalation and per-tile jitter instead of aborting on the first
  /// NumericalError.
  bool fault_tolerance = false;
  std::string checkpoint_path;   ///< empty = no checkpointing
  index_t checkpoint_every = 0;  ///< kernel tasks per checkpoint round; 0 =
                                 ///< one final checkpoint only
  std::string resume_path;       ///< empty = start fresh
  /// Checkpoint durability (--checkpoint-sync full|data|none).
  common::SyncPolicy checkpoint_sync = common::SyncPolicy::Full;

  /// Scheduler stall watchdog (--stall-timeout): > 0 dumps per-worker state
  /// after this many seconds without a completed task and fails the run with
  /// a structured StallError once the grace period (default: same value)
  /// also lapses. 0 disables.
  double stall_timeout_seconds = 0.0;
  double stall_grace_seconds = 0.0;

  /// DAG verification gate (--verify off|static|dynamic): static proves the
  /// constructed task graph race-free before execution, dynamic additionally
  /// shadow-checks the executed schedule. Default resolves through
  /// EXACLIM_VERIFY, falling back to static.
  runtime::VerifyMode verify_mode = runtime::VerifyMode::Default;

  stats::TrendFitConfig trend_config() const {
    stats::TrendFitConfig c;
    c.harmonics = harmonics;
    c.period = steps_per_year;
    return c;
  }
};

/// The construction-time check of both emulators: band limit >= 4, AR order
/// >= 1, harmonics >= 0 and steps_per_year >= 1; throws InvalidArgument.
void check_config(const EmulatorConfig& config);

/// The tiled-Cholesky options a trainer factors U-hat with: threads, fault
/// tolerance, checkpointing, stall watchdog and DAG verification, all taken
/// from `config`. Every trainer goes through this one mapping.
runtime::RtCholeskyOptions cholesky_options(const EmulatorConfig& config);

/// The scheduler options emulation draws its innovation panels with
/// (threads, stall watchdog, DAG verification), mapped like cholesky_options.
runtime::SchedulerOptions sampling_options(const EmulatorConfig& config);

}  // namespace exaclim::core
