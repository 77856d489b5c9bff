#include "core/config.hpp"

#include "common/error.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

namespace exaclim::core {

void check_config(const EmulatorConfig& config) {
  EXACLIM_CHECK(config.band_limit >= 4, "band limit must be >= 4");
  EXACLIM_CHECK(config.ar_order >= 1, "AR order must be >= 1");
  EXACLIM_CHECK(config.harmonics >= 0, "harmonics must be >= 0");
  EXACLIM_CHECK(config.steps_per_year >= 1, "steps_per_year must be >= 1");
}

runtime::RtCholeskyOptions cholesky_options(const EmulatorConfig& config) {
  runtime::RtCholeskyOptions opt;
  opt.threads = config.threads;
  opt.ft.enabled = config.fault_tolerance;
  opt.ft.integrity_checks = config.fault_tolerance;
  opt.ft.checkpoint_path = config.checkpoint_path;
  opt.ft.checkpoint_every = config.checkpoint_every;
  opt.ft.resume_path = config.resume_path;
  opt.ft.checkpoint_sync = config.checkpoint_sync;
  opt.stall_timeout_seconds = config.stall_timeout_seconds;
  opt.stall_grace_seconds = config.stall_grace_seconds;
  opt.verify = config.verify_mode;
  return opt;
}

runtime::SchedulerOptions sampling_options(const EmulatorConfig& config) {
  runtime::SchedulerOptions opt;
  opt.threads = config.threads;
  opt.stall_timeout_seconds = config.stall_timeout_seconds;
  opt.stall_grace_seconds = config.stall_grace_seconds;
  opt.verify = config.verify_mode;
  return opt;
}

}  // namespace exaclim::core
