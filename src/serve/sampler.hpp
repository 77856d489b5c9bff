// Batched sampling engine over a frozen model.
//
// "Train once, sample millions of times": after the tiled factorization the
// serving workload is draws x = L z from N(0, L L^T). The BatchSampler
// coalesces K pending requests into one n x K panel pass over the mmap'd
// packed factor through runtime::sample_panel (the engine emulation draws
// through too), adding request deadlines, the degraded plane and column
// extraction. The request id is the panel stream id, so the same
// (seed, request_id) yields byte-identical draws at any batch width,
// co-batched set, thread count or tile size.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/serialize.hpp"
#include "runtime/sampling_dag.hpp"
#include "runtime/scheduler.hpp"

namespace exaclim::serve {

/// One sampling request. `request_id` doubles as the RNG stream id — it is
/// the reproducibility key, so retrying a request with the same id returns
/// the same bytes. `deadline` is a steady-clock point after which the
/// request may be cancelled at the next tile-task boundary
/// (time_point::max() = no deadline).
struct SampleRequest {
  std::uint64_t request_id = 0;
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
};

struct SamplerOptions {
  std::uint64_t seed = 1;     ///< service-level RNG seed, split per request
  index_t tile = 256;         ///< sampling DAG block edge
  unsigned threads = 0;       ///< scheduler participants (0 = team size)
  runtime::RetryPolicy retry; ///< transient-fault retry, scheduler-level
  runtime::VerifyMode verify = runtime::VerifyMode::Default;
  double stall_timeout_seconds = 0.0;  ///< scheduler stall watchdog
};

/// What happened to one executed batch.
struct BatchOutcome {
  /// Bit k set = request k was cancelled (deadline expired at some tile-task
  /// boundary); its column of the panel is garbage by contract.
  std::uint64_t cancelled_mask = 0;
  runtime::RunStats stats;
};

/// Executes batches against one FrozenModel. Not thread-safe: the service
/// owns one sampler and runs batches sequentially on its engine thread (the
/// parallelism is inside the batch, across tile tasks).
class BatchSampler {
 public:
  BatchSampler(const core::FrozenModel& model, SamplerOptions options);

  index_t dim() const { return model_.factor_dim(); }
  const SamplerOptions& options() const { return options_; }

  /// Runs one batch of 1..64 requests. `degraded` serves from the model's
  /// reduced-precision factor plane (degradation ladder rung 2). Requests
  /// whose deadline already expired are cancelled before any compute.
  /// `batch_key` salts the fault injector's slow-task stream per batch.
  BatchOutcome run_batch(const std::vector<SampleRequest>& requests,
                         bool degraded, std::uint64_t batch_key);

  /// Copies column k of the last batch's panel (dim() doubles) into `out`.
  void extract_column(index_t k, double* out) const;

 private:
  const core::FrozenModel& model_;
  SamplerOptions options_;
  runtime::SamplePanel panel_;  ///< the last batch's z/x panels
};

}  // namespace exaclim::serve
