// The unified worker team: ONE process-wide set of persistent threads that
// serves both `common::parallel_for` regions and the task-graph scheduler
// (`runtime::execute`). Before this, the two engines each owned a thread
// team — parallel_for's pool plus per-execute std::threads in the scheduler
// — which oversubscribed the machine whenever a DAG ran while fork-join
// loops were active. Now every parallel engine drafts workers from here.
//
// NUMA/SMT awareness: workers are optionally pinned to CPUs in topology
// order (one worker per physical core across all nodes before any
// hyperthread doubling; see common/topology.hpp), and the team exposes each
// participant's NUMA node plus a node-near victim order that the scheduler
// uses to steal from same-node workers first.
//
// Concurrency contract (unchanged from the old pool):
//   * run() may be called from any thread. If the team is already executing
//     a job (another thread's region, or a nested call from inside a
//     worker), the caller runs the job inline on its own thread — nested or
//     concurrent regions degrade to serial execution instead of
//     deadlocking or oversubscribing. Engines built on run() must therefore
//     be correct with a single participant.
//   * Jobs must not throw; engines catch body exceptions themselves and
//     rethrow on the calling thread after the region completes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace exaclim::common {

class WorkerTeam {
 public:
  /// Job body: invoked once per participating thread with a dense rank in
  /// [0, participants); rank 0 is always the calling thread.
  using JobFn = void (*)(void* ctx, unsigned rank);

  /// Process-wide team, created on first use.
  static WorkerTeam& instance();

  /// True while the current thread is executing inside a team job (used to
  /// serialize nested parallel regions).
  static bool in_parallel_region();

  /// Overrides team size and pinning BEFORE the team is created (e.g. from
  /// CLI --threads/--pin). threads = 0 keeps the default (hardware
  /// concurrency); pin: 0 = off, 1 = on, -1 = keep default (EXACLIM_PIN env
  /// var, else off). Returns false — and changes nothing — if the team
  /// already exists.
  static bool configure(unsigned threads, int pin);

  /// Number of team workers (excludes the calling thread).
  unsigned worker_count() const { return static_cast<unsigned>(workers_.size()); }

  /// Largest useful `parallelism` for run(): every worker plus the caller.
  unsigned max_participants() const { return worker_count() + 1; }

  /// True when every worker's pthread_setaffinity_np actually succeeded
  /// (reported by the workers themselves, so a cpuset that rejects the pin
  /// shows up as unpinned rather than silently lying in bench metadata).
  /// Conservatively false while workers are still starting up.
  bool pinned() const;

  /// NUMA node of participant `rank` (0 = the caller, assumed to run near
  /// the first topology slot; r > 0 = worker r-1's pinned CPU). Meaningful
  /// only when pinned; returns 0 on single-node machines either way.
  int node_of_rank(unsigned rank) const;

  /// Steal-victim visit order for `rank` among `participants` ranks:
  /// same-NUMA-node victims first, each group round-robin from rank+1 so
  /// victims are spread across thieves.
  std::vector<unsigned> victim_order(unsigned rank,
                                     unsigned participants) const;

  /// Executes fn(ctx, rank) on the calling thread (rank 0) plus up to
  /// `parallelism - 1` team workers, blocking until every participant
  /// returns. Falls back to a single inline invocation when the team is
  /// busy or the region is nested.
  void run(unsigned parallelism, JobFn fn, void* ctx);

  ~WorkerTeam();
  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

 private:
  WorkerTeam();
  void worker_loop(unsigned rank);

  std::vector<std::thread> workers_;
  std::vector<int> worker_cpu_;   // pinned kernel CPU id per worker, -1 = float
  std::vector<int> rank_node_;    // NUMA node per participant rank
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::uint64_t epoch_ = 0;        // bumped once per dispatched job
  JobFn job_ = nullptr;
  void* ctx_ = nullptr;
  unsigned participants_ = 0;      // team workers joining the current epoch
  unsigned active_ = 0;            // team workers still inside the job
  bool shutdown_ = false;
  bool pin_ = false;
  std::atomic<unsigned> pins_ok_{0};  // workers whose affinity call succeeded
  std::mutex run_mu_;              // serializes whole regions (try_lock only)
};

}  // namespace exaclim::common
