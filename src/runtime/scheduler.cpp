#include "runtime/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "analysis/dag_verify.hpp"
#include "analysis/shadow_check.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/memory.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/work_steal_deque.hpp"
#include "linalg/kernels.hpp"
#include "runtime/failure.hpp"

namespace exaclim::runtime {

namespace {

constexpr TaskId kNil = -1;

/// Per-participant scheduling state, cache-line padded: the deque top and
/// mailbox head are CAS targets for every thief on the machine.
struct alignas(64) WorkerState {
  common::WorkStealDeque<TaskId> deque;
  std::atomic<TaskId> mail_head{kNil};

  // Watchdog-visible state: what this worker is doing right now. Written by
  // the owner around each task / park, read by the watchdog thread when it
  // dumps a stall report.
  std::atomic<TaskId> current{kNil};
  std::atomic<bool> parked{false};

  // Private counters, merged into RunStats after the run.
  index_t steal_hits = 0;
  index_t steal_misses = 0;
  index_t parks = 0;
  index_t affinity_hits = 0;
  index_t affinity_misses = 0;
  index_t transient_retries = 0;
  index_t recoveries = 0;
  double busy = 0.0;
};

/// Everything one execute() call shares between its participants. Workers
/// come from the process-wide WorkerTeam; this context exists only for the
/// duration of the run.
struct ExecContext {
  ExecContext(const TaskGraph& g, const SchedulerOptions& opt, Trace* tr,
              unsigned parts)
      : graph(g),
        options(opt),
        trace(tr),
        participants(parts),
        n(g.num_tasks()),
        remaining_preds(static_cast<std::size_t>(g.num_tasks())),
        mail_next(static_cast<std::size_t>(g.num_tasks())),
        done(static_cast<std::size_t>(g.num_tasks())) {
    for (index_t i = 0; i < n; ++i) {
      remaining_preds[static_cast<std::size_t>(i)].store(
          g.task(i).num_predecessors, std::memory_order_relaxed);
      done[static_cast<std::size_t>(i)].store(0, std::memory_order_relaxed);
    }
    // Prune tasks already satisfied by a checkpoint: mark them done and
    // credit each successor's predecessor count, so the graph behaves as if
    // they had just executed. Runs before the team is dispatched, so relaxed
    // ordering suffices.
    if (opt.already_done != nullptr && !opt.already_done->empty()) {
      EXACLIM_CHECK(
          static_cast<index_t>(opt.already_done->size()) == n,
          "already_done bitmap size must match the task-graph size");
      for (index_t i = 0; i < n; ++i) {
        if ((*opt.already_done)[static_cast<std::size_t>(i)] == 0) continue;
        done[static_cast<std::size_t>(i)].store(1, std::memory_order_relaxed);
        ++pre_done;
        for (TaskId succ : g.task(i).successors) {
          remaining_preds[static_cast<std::size_t>(succ)].fetch_sub(
              1, std::memory_order_relaxed);
        }
      }
      completed.store(pre_done, std::memory_order_relaxed);
    }
    workers.reserve(participants);
    for (unsigned r = 0; r < participants; ++r) {
      workers.push_back(std::make_unique<WorkerState>());
    }
    // 2D block-cyclic worker grid for tile affinity: p*q <= participants,
    // p as square as possible so both tile rows and columns spread.
    grid_p = 1;
    for (int p = 1;
         p * p <= static_cast<int>(participants); ++p) {
      grid_p = p;
    }
    grid_q = static_cast<int>(participants) / grid_p;
    const auto& team = common::WorkerTeam::instance();
    victims.reserve(participants);
    for (unsigned r = 0; r < participants; ++r) {
      victims.push_back(team.victim_order(r, participants));
    }
  }

  const TaskGraph& graph;
  const SchedulerOptions& options;
  Trace* trace;
  const unsigned participants;
  const index_t n;
  int grid_p = 1;
  int grid_q = 1;

  std::vector<std::atomic<index_t>> remaining_preds;
  std::vector<std::atomic<TaskId>> mail_next;  ///< intrusive mailbox links
  std::vector<std::atomic<std::uint8_t>> done; ///< per-task completion flags
  std::vector<std::unique_ptr<WorkerState>> workers;
  std::vector<std::vector<unsigned>> victims;  ///< NUMA-near-first, per rank

  /// Dynamic shadow checker (--verify dynamic); null otherwise. Owned by
  /// execute(), outlives every worker.
  analysis::ShadowChecker* shadow = nullptr;

  index_t pre_done = 0;  ///< tasks satisfied before the run (resume pruning)
  std::atomic<index_t> completed{0};
  /// Stall-watchdog dump count (merged into RunStats::stall_dumps).
  std::atomic<index_t> stall_dumps{0};
  /// Execution slots claimed against options.task_budget.
  std::atomic<index_t> budget_claims{0};
  /// Set when the task budget is exhausted: workers stop dispatching and the
  /// run quiesces at a task boundary (checkpointable state).
  std::atomic<bool> draining{false};
  /// Tells the watchdog thread the run barrier has been crossed.
  std::atomic<bool> watchdog_stop{false};
  /// Ranks that actually entered the run: when the team is busy the region
  /// degrades to the caller alone, and stats must report that, not the
  /// planned width (a serial run would otherwise read as ~6% efficiency).
  std::atomic<unsigned> joined{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  // Idle-worker parking. A worker that repeatedly fails to find work stops
  // busy-spinning and waits on this condition variable with an exponentially
  // growing bounded timeout; task completions that publish new ready work
  // bump `wake_epoch` and notify. The timeout (rather than exact wakeup
  // accounting) makes lost-wakeup hangs structurally impossible while still
  // keeping idle workers off the cores during skinny DAG phases.
  std::mutex idle_mu;
  std::condition_variable idle_cv;
  std::atomic<std::uint64_t> wake_epoch{0};
  std::atomic<unsigned> sleepers{0};
  std::atomic<index_t> wakes{0};

  /// Shared run clock so trace timestamps from different workers align.
  common::Timer clock;

  /// Home worker of a task's output tile, or -1 when the task carries no
  /// affinity coordinates.
  int home_of(TaskId id) const {
    const Task& t = graph.task(id);
    if (t.home_row < 0 || t.home_col < 0) return -1;
    return static_cast<int>(t.home_row % grid_p) * grid_q +
           static_cast<int>(t.home_col % grid_q);
  }

  // --- lock-free MPMC mailbox (Treiber stack over mail_next) ---------------
  // Each TaskId becomes ready exactly once per run, so a popped node can
  // never re-enter the stack and the classic ABA hazard cannot occur.

  void mail_push(WorkerState& w, TaskId id) {
    TaskId head = w.mail_head.load(std::memory_order_acquire);
    do {
      mail_next[static_cast<std::size_t>(id)].store(head,
                                                    std::memory_order_relaxed);
    } while (!w.mail_head.compare_exchange_weak(head, id,
                                                std::memory_order_release,
                                                std::memory_order_acquire));
  }

  bool mail_pop(WorkerState& w, TaskId& out) {
    TaskId head = w.mail_head.load(std::memory_order_acquire);
    while (head != kNil) {
      const TaskId next =
          mail_next[static_cast<std::size_t>(head)].load(
              std::memory_order_relaxed);
      if (w.mail_head.compare_exchange_weak(head, next,
                                            std::memory_order_acq_rel,
                                            std::memory_order_acquire)) {
        out = head;
        return true;
      }
    }
    return false;
  }

  // --- ready-task routing ---------------------------------------------------

  void wake_workers() {
    wake_epoch.fetch_add(1, std::memory_order_release);
    if (sleepers.load(std::memory_order_acquire) > 0) {
      {
        std::lock_guard<std::mutex> lock(idle_mu);
      }
      idle_cv.notify_all();
      wakes.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Routes a newly-ready task: homed tasks are mailed to their home worker
  /// (cache affinity beats spawner locality); everything else goes on the
  /// spawner's own deque (PaRSEC-style locality default).
  void push_ready(unsigned me, TaskId id) {
    const int home = home_of(id);
    if (home >= 0 && home != static_cast<int>(me)) {
      mail_push(*workers[static_cast<std::size_t>(home)], id);
    } else {
      workers[me]->deque.push(id);
    }
  }

  /// Finds the next task for `me`: own mailbox (affinity deliveries), own
  /// deque (LIFO, hottest first), then steals — NUMA-near victims' deques
  /// first, then victim mailboxes so affinity work can never be stranded
  /// behind a busy home worker (or a home rank that never joined the run,
  /// e.g. when the team was busy and the region degraded to one
  /// participant).
  bool find_task(unsigned me, TaskId& id) {
    WorkerState& my = *workers[me];
    if (mail_pop(my, id)) return true;
    if (my.deque.pop(id)) return true;
    for (unsigned v : victims[me]) {
      if (workers[v]->deque.steal(id)) {
        ++my.steal_hits;
        return true;
      }
    }
    for (unsigned v : victims[me]) {
      if (mail_pop(*workers[v], id)) {
        ++my.steal_hits;
        return true;
      }
    }
    ++my.steal_misses;
    return false;
  }

  void worker(unsigned me);
  bool run_with_retry(WorkerState& my, TaskId id, const Task& t);
  void record_failure(std::exception_ptr error);
  void dump_stall(double stalled_seconds);
  void watchdog();
};

void ExecContext::record_failure(std::exception_ptr error) {
  std::lock_guard<std::mutex> lock(error_mu);
  if (!failed.exchange(true)) first_error = error;
}

/// Renders every participant's instantaneous state — the triage view for a
/// wedged run — to stderr, and into the trace as zero-length events when one
/// is being collected. Reads are racy-by-design (relaxed snapshot of live
/// atomics); the dump describes a moment, not a barrier.
void ExecContext::dump_stall(double stalled_seconds) {
  const double now = clock.seconds();
  std::ostringstream os;
  os << "[exaclim stall watchdog] no task completed in " << stalled_seconds
     << " s (" << completed.load(std::memory_order_acquire) << " of " << n
     << " tasks done); per-worker state:\n";
  for (unsigned w = 0; w < participants; ++w) {
    WorkerState& ws = *workers[w];
    const TaskId cur = ws.current.load(std::memory_order_acquire);
    std::ostringstream line;
    line << "worker " << w << ": ";
    if (cur != kNil) {
      const Task& t = graph.task(cur);
      line << "running " << task_kind_name(t.kind);
      if (t.home_row >= 0 || t.home_col >= 0) {
        line << " tile (" << t.home_row << "," << t.home_col << ")";
      }
    } else {
      line << "idle";
    }
    line << " | deque~" << ws.deque.size_estimate() << " | "
         << (ws.parked.load(std::memory_order_acquire) ? "parked" : "awake");
    os << "  " << line.str() << "\n";
    if (trace != nullptr && options.collect_trace) {
      trace->record({"(stall) " + line.str(), w, now, now});
    }
  }
  std::fputs(os.str().c_str(), stderr);
  std::fflush(stderr);
  stall_dumps.fetch_add(1, std::memory_order_relaxed);
}

/// Watchdog thread body. Progress = the completed counter moving; a window
/// of stall_timeout_seconds without movement triggers one state dump, and a
/// stall persisting through the grace period fails the run: injected hangs
/// are aborted (so the hung worker unwinds and the team barrier releases)
/// and a structured StallError is recorded as the run's failure. A task
/// that is genuinely wedged in non-cooperative code cannot be interrupted —
/// the dump still fires, which is what tells the operator where it is.
void ExecContext::watchdog() {
  const double timeout = options.stall_timeout_seconds;
  const double grace =
      options.stall_grace_seconds > 0.0 ? options.stall_grace_seconds : timeout;
  index_t last_completed = completed.load(std::memory_order_acquire);
  double last_progress = clock.seconds();
  bool dumped = false;
  while (!watchdog_stop.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    if (failed.load(std::memory_order_relaxed) ||
        draining.load(std::memory_order_acquire)) {
      continue;  // run is already unwinding; nothing to police
    }
    const index_t now_completed = completed.load(std::memory_order_acquire);
    const double now = clock.seconds();
    if (now_completed != last_completed || now_completed >= n) {
      last_completed = now_completed;
      last_progress = now;
      dumped = false;
      continue;
    }
    const double stalled = now - last_progress;
    if (!dumped && stalled >= timeout) {
      dump_stall(stalled);
      dumped = true;
    }
    if (dumped && stalled >= timeout + grace) {
      record_failure(std::make_exception_ptr(
          StallError(stalled, now_completed, n)));
      common::FaultInjector::instance().abort_hangs();
      wake_workers();  // parked workers must observe the failure and exit
    }
  }
}

/// Runs one task under the retry policy. Returns true on success; on
/// unrecoverable failure records a structured TaskFailure and returns false
/// (the caller then quiesces the run). Attempt numbering: attempt k is the
/// k-th failure already absorbed, so the fault injector sees attempt 0 on
/// the first execution.
bool ExecContext::run_with_retry(WorkerState& my, TaskId id, const Task& t) {
  const RetryPolicy& policy = options.retry;
  auto& inject = common::FaultInjector::instance();
  int attempt = 0;
  int transient_failures = 0;
  auto backoff = std::chrono::microseconds(policy.backoff_us);
  for (;;) {
    try {
      inject.on_task(static_cast<std::uint64_t>(id), task_kind_name(t.kind),
                     t.home_row, t.home_col, attempt);
      if (t.fn) t.fn();
      return true;
    } catch (const TransientError&) {
      ++attempt;
      if (++transient_failures >= policy.max_transient_attempts) {
        record_failure(std::make_exception_ptr(TaskFailure(
            task_kind_name(t.kind), t.home_row, t.home_col, attempt,
            t.context ? t.context() : std::string(),
            "transient failures persisted through " +
                std::to_string(transient_failures) + " retries")));
        return false;
      }
      ++my.transient_retries;
      std::this_thread::sleep_for(backoff);
      backoff = std::min(backoff * 2, std::chrono::microseconds(10000));
    } catch (const TaskFailure&) {
      // Already structured (e.g. an integrity guard) — propagate verbatim.
      record_failure(std::current_exception());
      return false;
    } catch (const std::exception& e) {
      ++attempt;
      bool recovered = false;
      if (t.recover && attempt <= policy.max_recover_attempts) {
        try {
          recovered = t.recover(attempt, e);
        } catch (...) {
          // The recovery hook itself failed; report that error, which is
          // more specific than the original.
          record_failure(std::current_exception());
          return false;
        }
      }
      if (!recovered) {
        record_failure(std::make_exception_ptr(TaskFailure(
            task_kind_name(t.kind), t.home_row, t.home_col, attempt,
            t.context ? t.context() : std::string(), e.what())));
        return false;
      }
      ++my.recoveries;
    } catch (...) {
      record_failure(std::current_exception());
      return false;
    }
  }
}

void ExecContext::worker(unsigned me) {
  joined.fetch_add(1, std::memory_order_relaxed);
  WorkerState& my = *workers[me];
  // Spin briefly before parking: during dense DAG phases new work arrives
  // within microseconds and a yield-spin wins; during skinny phases the
  // spin limit trips and the worker sleeps instead of burning a core.
  constexpr unsigned kSpinLimit = 32;
  unsigned idle_spins = 0;
  auto park_us = std::chrono::microseconds(50);
  for (;;) {
    if (completed.load(std::memory_order_acquire) >= n ||
        failed.load(std::memory_order_relaxed) ||
        draining.load(std::memory_order_acquire)) {
      return;
    }
    const std::uint64_t epoch_before =
        wake_epoch.load(std::memory_order_acquire);
    TaskId id = kNil;
    if (!find_task(me, id)) {
      if (++idle_spins < kSpinLimit) {
        std::this_thread::yield();
        continue;
      }
      ++my.parks;
      const double park_t0 = clock.seconds();
      sleepers.fetch_add(1, std::memory_order_acq_rel);
      my.parked.store(true, std::memory_order_release);
      {
        std::unique_lock<std::mutex> lock(idle_mu);
        idle_cv.wait_for(lock, park_us, [&] {
          return wake_epoch.load(std::memory_order_acquire) != epoch_before ||
                 completed.load(std::memory_order_acquire) >= n ||
                 failed.load(std::memory_order_relaxed) ||
                 draining.load(std::memory_order_acquire);
        });
      }
      my.parked.store(false, std::memory_order_release);
      sleepers.fetch_sub(1, std::memory_order_acq_rel);
      if (trace != nullptr && options.collect_trace) {
        trace->record_park({"", me, park_t0, clock.seconds()});
      }
      park_us = std::min(park_us * 2, std::chrono::microseconds(2000));
      continue;
    }
    idle_spins = 0;
    park_us = std::chrono::microseconds(50);

    // Budget gate: claim an execution slot before running. An over-budget
    // claim re-queues the task untouched and drains the run — the caller
    // checkpoints the done bitmap and resumes with a fresh execute().
    if (options.task_budget > 0 &&
        budget_claims.fetch_add(1, std::memory_order_acq_rel) >=
            options.task_budget) {
      my.deque.push(id);
      draining.store(true, std::memory_order_release);
      wake_workers();
      return;
    }

    const Task& t = graph.task(id);
    const double t0 = clock.seconds();
    my.current.store(id, std::memory_order_release);
    // Dynamic shadow check brackets the body: entry asserts the datum epochs
    // and occupancy this task's dependencies promise, exit releases them. A
    // violation is a structured TaskFailure (kind VERIFY) and fails the run
    // exactly like an unrecoverable task error.
    bool ok = true;
    if (shadow != nullptr) {
      try {
        shadow->on_task_start(id);
      } catch (...) {
        record_failure(std::current_exception());
        ok = false;
      }
    }
    if (ok) ok = run_with_retry(my, id, t);
    if (ok && shadow != nullptr) {
      try {
        shadow->on_task_finish(id);
      } catch (...) {
        record_failure(std::current_exception());
        ok = false;
      }
    }
    my.current.store(kNil, std::memory_order_release);
    // Memory-pressure ladder rung 2: between tasks is the one point where no
    // kernel on this thread holds scratch-arena pointers, so trimming the
    // thread's packing arenas here is safe. Near-free without pressure.
    linalg::trim_thread_scratch_on_pressure();
    if (!ok) {
      completed.fetch_add(1, std::memory_order_release);
      wake_workers();  // parked workers must observe the failure
      return;
    }
    const double t1 = clock.seconds();
    my.busy += t1 - t0;
    const int home = home_of(id);
    if (home >= 0) {
      ++(home == static_cast<int>(me) ? my.affinity_hits
                                      : my.affinity_misses);
    }
    if (trace != nullptr && options.collect_trace) {
      trace->record({t.name, me, t0, t1});
    }
    // Collect newly-ready successors, then publish in ascending priority so
    // the LIFO owner pop takes the highest-priority one first.
    TaskId ready_buf[16];
    std::vector<TaskId> ready_overflow;
    std::size_t n_ready = 0;
    for (TaskId succ : t.successors) {
      if (remaining_preds[static_cast<std::size_t>(succ)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        // A checkpoint-pruned successor can reach zero here when its only
        // unpruned predecessors (e.g. CONVERT producers) complete: its done
        // flag is already set and it must not run again.
        if (done[static_cast<std::size_t>(succ)].load(
                std::memory_order_acquire) != 0) {
          continue;
        }
        if (n_ready < 16) {
          ready_buf[n_ready++] = succ;
        } else {
          ready_overflow.push_back(succ);
        }
      }
    }
    auto by_priority_asc = [&](TaskId a, TaskId b) {
      return graph.task(a).priority < graph.task(b).priority;
    };
    std::sort(ready_buf, ready_buf + n_ready, by_priority_asc);
    std::sort(ready_overflow.begin(), ready_overflow.end(), by_priority_asc);
    // Overflow entries all rank above the buffer only if sorted globally;
    // with <=16 successors in every real graph this path is cold — publish
    // buffer first, overflow after (still ascending within each).
    bool pushed = false;
    for (std::size_t i = 0; i < n_ready; ++i) {
      push_ready(me, ready_buf[i]);
      pushed = true;
    }
    for (TaskId succ : ready_overflow) {
      push_ready(me, succ);
      pushed = true;
    }
    done[static_cast<std::size_t>(id)].store(1, std::memory_order_release);
    completed.fetch_add(1, std::memory_order_release);
    // New ready work (stealable from this queue) or global completion:
    // either way parked workers need a look.
    if (pushed || completed.load(std::memory_order_acquire) >= n) {
      wake_workers();
    }
  }
}

}  // namespace

RunStats execute(const TaskGraph& graph, const SchedulerOptions& options,
                 Trace* trace) {
  const index_t n = graph.num_tasks();
  RunStats stats;
  auto& team = common::WorkerTeam::instance();
  // Default width is the configured team, not hardware_concurrency: an
  // explicit --threads/EXACLIM_THREADS override must reach DAG runs too.
  const unsigned requested =
      options.threads == 0 ? team.max_participants() : options.threads;
  // One thread team per process: the scheduler drafts from the shared
  // WorkerTeam instead of spawning its own threads, so a requested width
  // beyond the team clamps rather than oversubscribing.
  const unsigned participants = std::min(requested, team.max_participants());
  stats.threads = participants;
  if (n == 0) return stats;

  // Verification gate: prove the graph safe before dispatching anything.
  // Static mode runs by default (VerifyMode::Default resolves through
  // EXACLIM_VERIFY, falling back to Static), so every test build verifies
  // every DAG it executes without opting in.
  const VerifyMode verify = resolve_verify_mode(options.verify);
  std::unique_ptr<analysis::ShadowChecker> shadow;
  if (verify != VerifyMode::Off) {
    if (!options.graph_verified) {
      analysis::verify_dag_or_throw(graph, options.already_done);
    } else if (options.already_done != nullptr &&
               !options.already_done->empty()) {
      analysis::verify_pruning_or_throw(graph, *options.already_done);
    }
    if (verify == VerifyMode::Dynamic) {
      shadow = std::make_unique<analysis::ShadowChecker>(graph,
                                                         options.already_done);
    }
  }

  ExecContext ctx(graph, options, trace, participants);
  ctx.shadow = shadow.get();

  // Seed initial ready tasks in descending priority: homed roots go to
  // their affinity worker, the rest round-robin so high-priority roots
  // start immediately on distinct workers. Each target deque is then filled
  // in ascending priority (LIFO pop -> highest first). Seeding happens
  // before the team is dispatched, so the owner-only push rule is safe.
  {
    std::vector<TaskId> roots;
    for (index_t i = 0; i < n; ++i) {
      // Ready = all predecessors satisfied (counting checkpoint-pruned ones)
      // and not itself already done.
      if (ctx.remaining_preds[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed) == 0 &&
          ctx.done[static_cast<std::size_t>(i)].load(
              std::memory_order_relaxed) == 0) {
        roots.push_back(i);
      }
    }
    std::stable_sort(roots.begin(), roots.end(), [&](TaskId a, TaskId b) {
      return graph.task(a).priority > graph.task(b).priority;
    });
    std::vector<std::vector<TaskId>> per_queue(participants);
    unsigned rr = 0;
    for (TaskId id : roots) {
      const int home = ctx.home_of(id);
      const unsigned target =
          home >= 0 ? static_cast<unsigned>(home) : (rr++ % participants);
      per_queue[target].push_back(id);
    }
    for (unsigned w = 0; w < participants; ++w) {
      for (auto it = per_queue[w].rbegin(); it != per_queue[w].rend(); ++it) {
        ctx.workers[w]->deque.push(*it);
      }
    }
  }

  const std::uint64_t pressure_before =
      common::MemoryBudget::instance().pressure_epoch();

  common::Timer global;
  std::thread watchdog;
  if (options.stall_timeout_seconds > 0.0) {
    watchdog = std::thread([&ctx] { ctx.watchdog(); });
  }
  team.run(
      participants,
      [](void* p, unsigned rank) { static_cast<ExecContext*>(p)->worker(rank); },
      &ctx);
  if (watchdog.joinable()) {
    ctx.watchdog_stop.store(true, std::memory_order_release);
    watchdog.join();
  }

  // Memory-pressure ladder rung 1: all workers have joined the barrier, so
  // no steal can be in flight and retired deque rings are safe to free. Only
  // bother when pressure actually fired during the run.
  if (common::MemoryBudget::instance().pressure_epoch() != pressure_before) {
    std::size_t freed = 0;
    for (auto& w : ctx.workers) freed += w->deque.release_retired();
    if (freed > 0) common::MemoryBudget::instance().note_reclaimed(freed);
    stats.retired_ring_bytes_freed = freed;
  }

  stats.seconds = global.seconds();
  stats.threads = std::max(1u, ctx.joined.load());
  stats.tasks_executed = ctx.completed.load() - ctx.pre_done;
  stats.finished_all = ctx.completed.load() >= n;
  stats.done.resize(static_cast<std::size_t>(n), 0);
  for (index_t i = 0; i < n; ++i) {
    stats.done[static_cast<std::size_t>(i)] =
        ctx.done[static_cast<std::size_t>(i)].load(std::memory_order_acquire);
  }
  stats.worker_busy_seconds.resize(participants, 0.0);
  for (unsigned w = 0; w < participants; ++w) {
    const WorkerState& ws = *ctx.workers[w];
    stats.counters.steal_hits += ws.steal_hits;
    stats.counters.steal_misses += ws.steal_misses;
    stats.counters.parks += ws.parks;
    stats.counters.affinity_hits += ws.affinity_hits;
    stats.counters.affinity_misses += ws.affinity_misses;
    stats.counters.transient_retries += ws.transient_retries;
    stats.counters.recoveries += ws.recoveries;
    stats.worker_busy_seconds[w] = ws.busy;
    stats.busy_seconds += ws.busy;
  }
  stats.counters.wakes = ctx.wakes.load();
  stats.stall_dumps = ctx.stall_dumps.load();
  stats.steals = stats.counters.steal_hits;
  if (trace != nullptr && options.collect_trace) {
    trace->set_counters(stats.counters);
  }
  if (ctx.failed && ctx.first_error) std::rethrow_exception(ctx.first_error);
  // A budgeted run may legally quiesce early; an unbudgeted one must drain
  // the whole graph.
  EXACLIM_NUMERIC_CHECK(options.task_budget > 0 || stats.finished_all,
                        "scheduler finished without executing every task");
  return stats;
}

}  // namespace exaclim::runtime
