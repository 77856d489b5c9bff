#include "serve/sampler.hpp"

#include "common/error.hpp"

namespace exaclim::serve {

BatchSampler::BatchSampler(const core::FrozenModel& model,
                           SamplerOptions options)
    : model_(model), options_(options) {
  EXACLIM_CHECK(options_.tile > 0, "sampler tile must be positive");
}

BatchOutcome BatchSampler::run_batch(
    const std::vector<SampleRequest>& requests, bool degraded,
    std::uint64_t batch_key) {
  const auto k_cols = static_cast<index_t>(requests.size());
  EXACLIM_CHECK(k_cols >= 1 && k_cols <= runtime::BatchControl::kMaxBatch,
                "batch width must be in [1, 64]");
  std::vector<std::uint64_t> stream_ids;
  runtime::BatchControl control;
  for (const SampleRequest& request : requests) {
    stream_ids.push_back(request.request_id);
    control.deadlines.push_back(request.deadline);
  }
  // Requests that expired while queued are cancelled before any compute:
  // every tile task sees their bit set from its first poll.
  control.poll(std::chrono::steady_clock::now());

  runtime::SamplingDagOptions dag_options;
  dag_options.tile = options_.tile;
  dag_options.batch_key = batch_key;
  runtime::SchedulerOptions sched;
  sched.threads = options_.threads;
  sched.retry = options_.retry;
  sched.verify = options_.verify;
  sched.stall_timeout_seconds = options_.stall_timeout_seconds;

  BatchOutcome outcome;
  outcome.stats = runtime::sample_panel(
      degraded ? model_.degraded_factor() : model_.factor(), options_.seed,
      stream_ids, panel_, &control, dag_options, sched);
  // Report the mask the tasks actually observed — not a fresh poll. A column
  // whose deadline passed after its last tile task completed still holds a
  // full, valid draw; cancellation only invalidates columns some task
  // skipped.
  outcome.cancelled_mask = control.cancelled.load(std::memory_order_acquire);
  return outcome;
}

void BatchSampler::extract_column(index_t k, double* out) const {
  EXACLIM_CHECK(k >= 0 && k < panel_.width, "no such batch column");
  const index_t n = model_.factor_dim();
  for (index_t c = 0; c < n; ++c) {
    out[c] = panel_.x[static_cast<std::size_t>(c * panel_.width + k)];
  }
}

}  // namespace exaclim::serve
