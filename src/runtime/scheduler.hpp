// Priority work-stealing scheduler for TaskGraph execution, running on the
// process-wide unified WorkerTeam (no scheduler-owned threads).
//
// Each participating worker owns a lock-free Chase–Lev deque (owner
// push/pop at the bottom, CAS-only steals at the top) plus a lock-free
// mailbox for tile-affinity deliveries: a task whose output tile is "homed"
// on another worker (2D block-cyclic map over Task::home_row/home_col) is
// mailed to that worker instead of queued locally, so TRSM/GEMM chains
// updating one tile column stay on the worker whose caches hold the packed
// panels. Idle workers steal NUMA-near victims first (deques, then
// mailboxes), using the team's topology map. Priorities are honored
// greedily: newly-ready successors are pushed in ascending priority so the
// LIFO owner pop takes the highest first; the initial ready set is seeded
// in priority order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "runtime/task_graph.hpp"
#include "runtime/trace.hpp"
#include "runtime/verify_mode.hpp"

namespace exaclim::runtime {

/// How the scheduler responds to task exceptions. TransientError gets bounded
/// in-place retry with exponential backoff; other exceptions consult the
/// task's own `recover` hook up to `max_recover_attempts` times before a
/// structured TaskFailure propagates.
struct RetryPolicy {
  int max_transient_attempts = 4;  ///< total tries for a TransientError task
  int max_recover_attempts = 8;    ///< recover-hook invocations before giving up
  int backoff_us = 100;            ///< first transient backoff; doubles per retry
};

struct SchedulerOptions {
  unsigned threads = 0;   ///< 0 = one participant per team slot (hw concurrency)
  bool collect_trace = false;
  RetryPolicy retry;
  /// Stop dispatching after this many newly-executed tasks (0 = unlimited).
  /// The run then quiesces at a task boundary; RunStats::done records which
  /// tasks have completed so the caller can checkpoint and call execute()
  /// again with that bitmap as `already_done`.
  index_t task_budget = 0;
  /// Tasks already satisfied (e.g. restored from a checkpoint): a byte per
  /// task in graph order, non-zero = done. The scheduler prunes them — their
  /// dependents see them as completed and they are never dispatched.
  const std::vector<std::uint8_t>* already_done = nullptr;
  /// Stall watchdog: when > 0, a monitor thread watches the run and, if no
  /// task completes for this many seconds, dumps per-worker state (current
  /// task kind/tile, deque depth, park status) to stderr and the trace. If
  /// the stall then persists through the grace period the run is failed with
  /// a structured StallError: injected hangs are aborted so workers unwind,
  /// and the error propagates once the run quiesces. 0 disables the watchdog.
  double stall_timeout_seconds = 0.0;
  /// Extra time after the first stall dump before the run is failed.
  /// <= 0 means "same as stall_timeout_seconds".
  double stall_grace_seconds = 0.0;
  /// DAG verification gate (see runtime/verify_mode.hpp). Static proves the
  /// constructed graph orders every declared conflict before any task runs
  /// (throws analysis::DagVerifyError otherwise); Dynamic additionally
  /// shadow-checks the executed schedule at task entry/exit. Default
  /// resolves through EXACLIM_VERIFY and falls back to Static.
  VerifyMode verify = VerifyMode::Default;
  /// Set by a caller that runs a graph execute() has already verified (the
  /// later rounds of a budgeted run): checks (a)-(d) depend only on the
  /// graph, so the static gate then runs only the pruning check (e) on
  /// `already_done`. The dynamic shadow checker runs as before.
  bool graph_verified = false;
};

struct RunStats {
  double seconds = 0.0;
  index_t tasks_executed = 0;  ///< tasks newly executed by this call
  index_t steals = 0;         ///< successful steals (== counters.steal_hits)
  double busy_seconds = 0.0;  ///< summed task durations across workers
  unsigned threads = 0;       ///< actual participants (capped by the team)
  /// Completion bitmap over all graph tasks (pre-done + newly executed);
  /// feed back as SchedulerOptions::already_done to continue a budgeted run.
  std::vector<std::uint8_t> done;
  /// True when every task in the graph has completed (a budgeted run that
  /// exhausted its budget first reports false).
  bool finished_all = false;

  /// Times the stall watchdog saw a no-progress window and dumped worker
  /// state (a run can recover after a dump; > 0 with success still signals
  /// the run needs a look).
  index_t stall_dumps = 0;
  /// Bytes reclaimed by the memory-pressure ladder at the end-of-run
  /// barrier (retired work-stealing rings, rung 1).
  std::size_t retired_ring_bytes_freed = 0;

  /// Scheduler health counters: steal hit/miss, park/wake, affinity.
  TraceCounters counters;
  /// Per-participant busy seconds (index = worker rank).
  std::vector<double> worker_busy_seconds;

  /// busy / (threads * wall): 1.0 means no idle time at all.
  double parallel_efficiency() const {
    return (seconds > 0.0 && threads > 0)
               ? busy_seconds / (seconds * static_cast<double>(threads))
               : 0.0;
  }
};

/// Executes every task in the graph, respecting dependencies. Task
/// exceptions go through the RetryPolicy (transient retry, then the task's
/// recover hook); the first unrecoverable failure is rethrown as a
/// structured TaskFailure after quiescing the workers. If `trace` is
/// non-null and options.collect_trace is set, per-task execution records
/// (and park intervals + run counters) are appended.
RunStats execute(const TaskGraph& graph, const SchedulerOptions& options = {},
                 Trace* trace = nullptr);

}  // namespace exaclim::runtime
