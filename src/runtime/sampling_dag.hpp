// Batched sampling DAG: X = L * Z over a packed frozen factor.
//
// A serving batch is an n x K multi-RHS panel: Z holds K independent
// standard-normal columns (one per request), X accumulates the correlated
// draws. The factor is blocked into nb = ceil(n / tile) block rows/columns;
// task (bi, bj) applies packed block L(bi, bj) to Z's block row bj,
// accumulating into X's block row bi. Accesses and effects are declared on
// synthetic tiles of one logical grid — L at (bi, bj), Z at (bj, nb), X at
// (bi, nb + 1), all on the Storage plane — so
//   * the dependence inference serializes the passes over each X block row
//     in ascending bj (fixed accumulation order = bit-reproducible sums)
//     while distinct block rows run in parallel, and
//   * the static/dynamic DAG verifier (--verify) covers serving graphs with
//     exactly the machinery that covers training graphs.
//
// Every task body polls the batch's BatchControl at entry — the cooperative
// cancellation boundary: a request whose deadline expired stops consuming
// factor bandwidth at the next tile task, and the surviving columns see the
// same operations in the same order as if the batch had never been touched.
//
// sample_panel, the one sampling engine for serving and emulation, draws
// column k from Rng(seed).split(stream_ids[k]) (docs/SERVING.md).
#pragma once

#include <atomic>
#include <chrono>
#include <span>
#include <vector>

#include "linalg/kernels.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"

namespace exaclim::runtime {

/// Shared cancellation/deadline state for one in-flight batch, polled by the
/// sampling task bodies. Thread-safe: the mask is a single atomic, the
/// deadline vector is immutable once the batch launches.
struct BatchControl {
  static constexpr index_t kMaxBatch = 64;  ///< mask width

  /// Bit k set = batch column k is cancelled (its deadline expired; poll()
  /// is the only writer). Tasks skip cancelled columns; their X values are
  /// garbage by contract.
  std::atomic<std::uint64_t> cancelled{0};

  /// Per-column deadlines; time_point::max() = none. Sized to the batch
  /// width before launch and not resized afterwards.
  std::vector<std::chrono::steady_clock::time_point> deadlines;

  /// Marks every column whose deadline is at or before `now` cancelled and
  /// returns the resulting mask. Called by task bodies at entry.
  std::uint64_t poll(std::chrono::steady_clock::time_point now);
};

struct SamplingDagOptions {
  index_t tile = 256;  ///< block edge (rows/cols per block)
  /// Stable per-batch salt folded into each task's fault-injection key, so a
  /// fault plan's slow-task draws are deterministic per (batch, block).
  std::uint64_t batch_key = 0;
};

/// Builds the block-row sampling DAG. `z` and `x` are caller-owned row-major
/// n x k_cols panels that must outlive execution; `x` must be
/// zero-initialized. `control` may be null (no cancellation). The returned
/// graph passes the static verifier and declares effects for the dynamic
/// shadow checker.
TaskGraph build_sampling_dag(const linalg::PackedFactorView& factor,
                             const double* z, double* x, index_t k_cols,
                             BatchControl* control,
                             const SamplingDagOptions& options = {});

/// Row-major n x K panels of the last sample_panel call (reused storage).
struct SamplePanel {
  std::vector<double> z;  ///< standard-normal columns
  std::vector<double> x;  ///< correlated draws: column k = L z_k
  index_t width = 0;      ///< K
};

/// Draws K = stream_ids.size() (1..64) columns over `factor` on the task
/// runtime. `control` may be null (see build_sampling_dag). Z is filled in
/// parallel, one group of 8 columns per worker, with the participant count
/// `scheduler_options.threads` asks for.
RunStats sample_panel(const linalg::PackedFactorView& factor,
                      std::uint64_t seed,
                      std::span<const std::uint64_t> stream_ids,
                      SamplePanel& panel, BatchControl* control,
                      const SamplingDagOptions& dag_options,
                      const SchedulerOptions& scheduler_options);

enum class EmulationStream : std::uint64_t {
  Innovation = 1,  ///< VAR innovation xi for (member, step)
  Nugget = 2,      ///< nugget noise for (member, step), all variables
};

/// Stream id of an emulation draw: kind in bits 62-63, member in bits 32-61,
/// step in bits 0-31 (innovation steps count from the first burn-in step).
std::uint64_t emulation_stream_id(EmulationStream kind, index_t member,
                                  index_t step);

}  // namespace exaclim::runtime
