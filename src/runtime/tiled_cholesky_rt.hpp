// Mixed-precision tile Cholesky (right-looking) on the task runtime — the
// library's one tiled factorization engine; at threads = 1 it is the
// sequential case.
//
// Factorizes a TiledSymmetricMatrix in place: on return the lower-triangle
// tiles hold L with A ~= L L^T, each tile still in its assigned storage
// precision. The task structure matches the paper (Section V-A):
//   POTRF(k,k)  -> broadcasts to TRSM(i,k), i > k
//   TRSM(i,k)   -> broadcasts to GEMM(i,j,k) in row i / column i, SYRK(i,k)
// Tasks compute in the precision class of their *output* tile; fp16 tiles
// compute with half-rounded operands and fp32 accumulation (tensor-core
// semantics). FP32 and FP16 tasks, and the CONVERTs making their operand
// copies, flush subnormals to zero (common/fpenv.hpp): their values below
// 2^-126 become signed zeros instead of costing a microcode assist per FMA.
// FP64 tasks and POTRF keep IEEE gradual underflow, so a DP factor's bytes
// do not depend on it.
// Inputs arriving in a different precision are converted either
//   * at the "sender": explicit CONVERT tasks right after the producing
//     POTRF/TRSM write a shared converted copy that all consumers read — one
//     conversion per (tile, precision), PaRSEC's sender-side reshaping and
//     the paper's optimized placement; or
//   * at the "receiver": every consuming task converts privately — no
//     CONVERT tasks, more conversion work and memory traffic; the baseline
//     of [34] that Fig. 5 compares against.
// Both placements run the same conversion routine, so they produce
// bit-identical factors. On CPU the distinction shows up as conversion work
// and memory traffic; the perfmodel replays the same choice with
// communication costs at scale, and uses this builder at small tile counts
// to validate its analytic cluster model against a real DAG.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/io.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/task_graph.hpp"

namespace exaclim::runtime {

/// Jitter-ladder lengths, x10 per rung: the per-tile POTRF recovery
/// (FaultToleranceOptions::enabled) and the training factor step's retry of
/// the whole factorization (core::train_variables), which runs after it.
inline constexpr int kTileJitterRungs = 6;
inline constexpr int kFactorJitterRungs = 12;

/// Fault-tolerance knobs for the tiled factorization. All off by default:
/// the library behaves exactly as before unless a caller opts in.
struct FaultToleranceOptions {
  /// Task-level recovery: a diagonal POTRF that throws NumericalError
  /// retries with precision escalation (f16 -> f32 -> f64) and then a
  /// diagonal-jitter ladder of kTileJitterRungs rungs on that tile before a
  /// structured TaskFailure propagates (to the training ladder, when
  /// core::train_variables is factoring).
  bool enabled = false;
  /// CRC32C tile-payload guards: each task verifies the tiles it reads and
  /// re-records the tile it writes, plus a whole-matrix sweep before and
  /// after the run, so silent bit corruption becomes a structured failure.
  bool integrity_checks = false;
  double jitter_base = 1e-10;  ///< first rung, relative to the diagonal scale
  /// Checkpoint/restart: when `checkpoint_path` is set the run snapshots the
  /// completed-task frontier plus tile payloads every `checkpoint_every`
  /// newly-executed tasks (0 = once, at completion). Every commit but the
  /// last is written by a background thread from a copy of the tiles while
  /// the next round runs; the last is written before the call returns.
  /// `resume_path` restores tiles from a prior checkpoint and prunes its
  /// completed tasks from the rebuilt graph before executing the remainder.
  std::string checkpoint_path;
  index_t checkpoint_every = 0;
  std::string resume_path;
  /// Durability policy for checkpoint writes (--checkpoint-sync): Full
  /// fsyncs file + directory, Data fdatasyncs the file only, None skips
  /// syncing entirely. Atomic-rename crash consistency holds for all three.
  common::SyncPolicy checkpoint_sync = common::SyncPolicy::Full;
};

struct RtCholeskyOptions {
  linalg::ConversionPlacement placement = linalg::ConversionPlacement::Sender;
  unsigned threads = 0;  ///< 0 = hardware concurrency
  bool collect_trace = false;
  /// Stall watchdog (see SchedulerOptions): > 0 arms a monitor that dumps
  /// per-worker state after this many seconds without a task completing and
  /// fails the run with StallError once the grace period also lapses.
  double stall_timeout_seconds = 0.0;
  double stall_grace_seconds = 0.0;  ///< <= 0: same as the timeout
  /// DAG verification gate, forwarded to SchedulerOptions::verify (see
  /// runtime/verify_mode.hpp): static graph proof before execution, optional
  /// dynamic shadow checking of the executed schedule.
  VerifyMode verify = VerifyMode::Default;
  FaultToleranceOptions ft;
};

struct RtCholeskyResult {
  RunStats run;
  index_t total_tasks = 0;
  index_t convert_tasks = 0;
  double element_conversions = 0.0;
  index_t critical_path_tasks = 0;
  index_t precision_escalations = 0;  ///< POTRF tiles widened after failure
  index_t jitter_escalations = 0;     ///< POTRF jitter-ladder rungs taken
  index_t checkpoints_written = 0;
  bool resumed = false;               ///< tiles restored from resume_path
};

/// Factorizes `a` in place in parallel. If a diagonal tile is not positive
/// definite (and fault tolerance cannot recover it), throws a TaskFailure
/// (runtime/failure.hpp) with kind "POTRF" naming the tile, after quiescing
/// the worker pool.
RtCholeskyResult cholesky_tiled_parallel(linalg::TiledSymmetricMatrix& a,
                                         const RtCholeskyOptions& options = {},
                                         Trace* trace = nullptr);

/// Convenience: factorizes a dense SPD matrix through the tiled solver with
/// the band policy of variant `v` and returns the dense lower factor (upper
/// zeroed).
linalg::Matrix cholesky_mixed_dense(const linalg::Matrix& a, index_t nb,
                                    linalg::PrecisionVariant v);

/// Holds the task graph plus the converted-copy buffers the task bodies
/// reference; must outlive execution.
class CholeskyGraph {
 public:
  CholeskyGraph(linalg::TiledSymmetricMatrix& a,
                linalg::ConversionPlacement placement,
                const FaultToleranceOptions& ft = {});

  TaskGraph& graph() { return graph_; }
  const TaskGraph& graph() const { return graph_; }
  index_t convert_tasks() const { return convert_tasks_; }
  double element_conversions() const { return element_conversions_; }

  /// Kernel (non-CONVERT) task ids in submission order. This sequence
  /// depends only on the tile count, never on precision-driven CONVERT
  /// placement, so it is the stable coordinate system checkpoints use to
  /// record the completed-task frontier across graph rebuilds.
  const std::vector<TaskId>& kernel_task_ids() const { return kernel_ids_; }

  index_t precision_escalations() const {
    return precision_escalations_.load(std::memory_order_relaxed);
  }
  index_t jitter_escalations() const {
    return jitter_escalations_.load(std::memory_order_relaxed);
  }

  /// Records the current CRC32C of every tile (integrity mode): the trusted
  /// baseline before a run, and after a checkpoint restore.
  void seed_tile_checksums();
  /// Verifies every tile against its recorded CRC32C; throws a structured
  /// TaskFailure on the first mismatch. Catches corruption in tiles no
  /// remaining task would otherwise read (e.g. the last diagonal).
  void verify_tile_checksums() const;

 private:
  struct Copy {
    std::vector<double> d;
    std::vector<float> f;
    std::vector<common::half> h;  // packed-half operand form
    float hscale = 1.0f;          // scale of h, chosen by convert()
  };
  /// F16P = packed binary16 + scale, the operand form of the packed-half
  /// kernels. FP16-stored tiles are already in it (no CONVERT task needed).
  enum class Repr : std::uint8_t { F64, F32, F16P };
  /// Kernel-ready pointers to one operand; only `repr`'s member is set.
  struct OperandView {
    const double* d = nullptr;
    const float* f = nullptr;
    const common::half* h = nullptr;
    float hscale = 1.0f;  // scale of h; true value = float(h[i]) * hscale
  };

  static Repr operand_repr(linalg::Precision out);
  /// True when `t`'s storage already is `repr` (delivered without a copy).
  static bool stored_as(const linalg::TileBuffer& t, Repr repr);
  /// The copy plane a CONVERT producing `repr` writes (effect metadata).
  static TilePlane repr_plane(Repr repr);
  /// Converts `t` into `repr`, filling `out`: the one conversion routine,
  /// run by CONVERT tasks (sender) and inside consumers (receiver).
  static void convert(const linalg::TileBuffer& t, Repr repr, Copy& out);
  /// Delivers `t` in `repr` inside a consumer body: the sender's shared copy
  /// when one was built, else the tile's own storage when it already is
  /// `repr`, else a private conversion into `scratch`.
  static OperandView fetch(const linalg::TileBuffer& t, Repr repr,
                           const Copy* shared, Copy& scratch);

  /// Handle + buffer for a converted copy, created on first need.
  struct CopySlot {
    DataHandle handle;
    Copy buffer;
  };

  /// Ensures a CONVERT task exists producing (i,j) in `repr`; returns the
  /// slot whose handle consumers read and whose buffer they consume.
  const CopySlot& ensure_convert(index_t i, index_t j, Repr repr, index_t k);

  DataHandle tile_handle(index_t i, index_t j) const {
    return tile_handles_[static_cast<std::size_t>(i * (i + 1) / 2 + j)];
  }

  void build();

  /// Wraps a kernel-task body with integrity guards (no-op unless
  /// ft_.integrity_checks): verify the CRCs of `reads` and of the output
  /// tile, run the body, re-record the output tile's CRC, then give the
  /// fault injector its post-write corruption window.
  std::function<void()> guard(std::function<void()> body, TaskKind kind,
                              std::vector<std::pair<index_t, index_t>> reads,
                              index_t out_i, index_t out_j,
                              std::uint64_t salt);
  void record_tile_crc(index_t i, index_t j);
  void verify_tile_crc(index_t i, index_t j, const char* when) const;

  linalg::TiledSymmetricMatrix& a_;
  linalg::ConversionPlacement placement_;
  FaultToleranceOptions ft_;
  TaskGraph graph_;
  std::vector<DataHandle> tile_handles_;
  std::map<std::tuple<index_t, index_t, int>, std::unique_ptr<CopySlot>> copies_;
  std::vector<TaskId> kernel_ids_;
  index_t convert_tasks_ = 0;
  double element_conversions_ = 0.0;
  std::atomic<index_t> precision_escalations_{0};
  std::atomic<index_t> jitter_escalations_{0};
  /// Per-tile trusted CRC32C (packed lower triangle) + validity flags;
  /// written under the DAG's tile-dependency serialization, so no two tasks
  /// race on one tile's entry.
  mutable std::vector<std::atomic<std::uint32_t>> tile_crcs_;
  mutable std::vector<std::atomic<std::uint8_t>> tile_crc_valid_;
};

}  // namespace exaclim::runtime
