// Execution tracing: per-task records exportable as a Chrome trace
// (chrome://tracing / Perfetto JSON), the moral equivalent of PaRSEC's PINS
// traces used to diagnose starvation at scale.
//
// Task slices live in events(); scheduler idle intervals (worker parked on
// the idle CV) are recorded separately in park_events() so existing
// consumers of events() keep seeing exactly one record per task. The JSON
// export emits both — parks show up as "(parked)" slices on the worker's
// track — plus a process-level metadata row with the run's steal/affinity
// counters.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace exaclim::runtime {

struct TraceEvent {
  std::string name;
  unsigned worker = 0;
  double start_seconds = 0.0;
  double end_seconds = 0.0;
};

/// Whole-run scheduler counters attached to the trace (and to RunStats).
struct TraceCounters {
  index_t steal_hits = 0;
  index_t steal_misses = 0;
  index_t parks = 0;
  index_t wakes = 0;
  index_t affinity_hits = 0;
  index_t affinity_misses = 0;
  index_t transient_retries = 0;  ///< task re-runs after a TransientError
  index_t recoveries = 0;         ///< successful task recover-hook invocations
};

class Trace {
 public:
  void record(TraceEvent event);
  void record_park(TraceEvent event);
  void set_counters(const TraceCounters& counters);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<TraceEvent>& park_events() const { return park_events_; }
  const TraceCounters& counters() const { return counters_; }
  void clear() {
    events_.clear();
    park_events_.clear();
    counters_ = {};
  }

  /// Writes Chrome-trace JSON ("traceEvents" array, microsecond timestamps):
  /// task and park slices plus a scheduler_counters metadata event, through
  /// common::atomic_write_file with SyncPolicy::None.
  void write_chrome_json(const std::string& path) const;

 private:
  std::mutex mu_;
  std::vector<TraceEvent> events_;
  std::vector<TraceEvent> park_events_;
  TraceCounters counters_;
};

}  // namespace exaclim::runtime
