// Shared pieces of the pipeline benchmark: the run's meta block, the one
// percentile helper every latency number goes through, and the bench-side
// span recorder the traced run uses to attribute time to library layers.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "common/topology.hpp"
#include "linalg/kernels.hpp"
#include "runtime/trace.hpp"
#include "runtime/verify_mode.hpp"

namespace exaclim::bench {

// --- meta --------------------------------------------------------------------

/// True when results from this environment must not be compared against
/// multi-core runs (a 1-core container makes every parallel number moot).
inline bool degraded_env() { return std::thread::hardware_concurrency() <= 1; }

/// One-line JSON describing the machine and the settings a run used:
/// enough to refuse comparing runs that cannot be compared.
inline std::string meta_json(std::uint64_t seed) {
#if defined(__AVX512F__)
  const int avx512 = 1;
#else
  const int avx512 = 0;
#endif
#if defined(__F16C__)
  const int f16c = 1;
#else
  const int f16c = 0;
#endif
  const auto& team = common::WorkerTeam::instance();
  const auto& topo = common::Topology::instance();
  const linalg::KernelTuning tuning = linalg::active_tuning();
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "{\"hardware_concurrency\": %u, \"degraded_env\": %s, "
      "\"team_threads\": %u, \"pinned\": %d, \"numa_nodes\": %u, "
      "\"avx512\": %d, \"f16c\": %d, \"l1d_bytes\": %zu, \"l2_bytes\": %zu, "
      "\"l3_bytes\": %zu, \"tune_mode\": \"%s\", \"f64_kc\": %lld, "
      "\"f64_mc\": %lld, \"f64_nc\": %lld, \"f32_kc\": %lld, "
      "\"f32_mc\": %lld, \"f32_nc\": %lld, \"verify\": \"%s\", "
      "\"seed\": %llu}",
      std::thread::hardware_concurrency(), degraded_env() ? "true" : "false",
      team.max_participants(), team.pinned() ? 1 : 0, topo.num_nodes(),
      avx512, f16c, tuning.l1d_bytes, tuning.l2_bytes, tuning.l3_bytes,
      linalg::tune_mode_name(tuning.mode).c_str(),
      static_cast<long long>(tuning.f64.kc),
      static_cast<long long>(tuning.f64.mc),
      static_cast<long long>(tuning.f64.nc),
      static_cast<long long>(tuning.f32.kc),
      static_cast<long long>(tuning.f32.mc),
      static_cast<long long>(tuning.f32.nc),
      runtime::verify_mode_name(
          runtime::resolve_verify_mode(runtime::VerifyMode::Default)),
      static_cast<unsigned long long>(seed));
  return buf;
}

/// Restarts the kernel's peak-RSS counter (Linux clear_refs "5"), so
/// peak_rss_mb() covers only what runs afterwards. Where the kernel does not
/// support it the peak keeps covering the whole process.
inline void reset_peak_rss() {
  std::ofstream refs("/proc/self/clear_refs");
  refs << "5";
}

/// Peak resident set size (VmHWM) since start or the last reset, in MB.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

// --- percentiles -------------------------------------------------------------

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  /// A tail percentile is only trustworthy with at least ten samples beyond
  /// it; the median is always reported.
  bool supported = false;
};

/// Nearest-rank percentile `p` in (0, 1] of `samples`.
inline Percentile percentile(std::vector<double> samples, double p) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(p * n)));
  out.value = samples[rank - 1];
  out.supported = p <= 0.5 || samples.size() - rank >= 10;
  return out;
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5).value;
}

/// "p90 3.214 ms (n=4012)", with "unsupported" when fewer than ten samples
/// lie beyond the percentile.
inline std::string describe(const char* label, const Percentile& q,
                            const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s %.4g %s (n=%zu%s)", label, q.value, unit,
                q.samples, q.supported ? "" : ", unsupported");
  return buf;
}

// --- spans -------------------------------------------------------------------

/// In-memory span recorder for the traced run. Spans are recorded around the
/// benchmark's own calls into the library (never inside it), nest per thread
/// through Scope, and are written once, at exit, as Chrome-trace JSON. When
/// disabled every call is a no-op, so untraced runs pay one branch.
class SpanRecorder {
 public:
  using clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the recorder was created
    double end = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = -1;  ///< -1 = root
    std::string phase;         ///< workload/phase the span belongs to
    std::int64_t request = -1; ///< serving request id, -1 = none
    std::uint64_t thread = 0;
  };

  /// RAII span on the calling thread, parented to the thread's innermost
  /// open Scope.
  class Scope {
   public:
    Scope(SpanRecorder& rec, std::string name, std::int64_t request = -1)
        : rec_(rec.enabled() ? &rec : nullptr) {
      if (rec_ == nullptr) return;
      name_ = std::move(name);
      request_ = request;
      parent_ = stack().empty() ? -1 : stack().back();
      id_ = rec_->next_id();
      start_ = rec_->now();
      stack().push_back(id_);
    }
    ~Scope() {
      if (rec_ == nullptr) return;
      stack().pop_back();
      rec_->add(std::move(name_), start_, rec_->now(), id_, parent_, request_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Span id, usable as the parent of spans recorded on other threads.
    std::int64_t id() const { return rec_ == nullptr ? -1 : id_; }

   private:
    SpanRecorder* rec_;
    std::string name_;
    std::int64_t request_ = -1;
    std::int64_t parent_ = -1;
    std::int64_t id_ = -1;
    double start_ = 0.0;
  };

  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void set_phase(std::string phase) {
    std::lock_guard<std::mutex> lock(mu_);
    phase_ = std::move(phase);
  }

  double now() const {
    return std::chrono::duration<double>(clock::now() - origin_).count();
  }
  /// Seconds since the recorder's origin for a steady-clock time point.
  double at(clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  /// Records an explicitly timed span (e.g. a request timed across threads).
  void record(std::string name, double start, double end, std::int64_t parent,
              std::int64_t request = -1) {
    if (!enabled_) return;
    add(std::move(name), start, end, next_id(), parent, request);
  }

  /// Merges a runtime::Trace's task slices as children of span `parent`,
  /// shifting them by `offset` seconds onto this recorder's clock.
  void import_tasks(const runtime::Trace& trace, std::int64_t parent,
                    double offset) {
    if (!enabled_) return;
    for (const runtime::TraceEvent& e : trace.events()) {
      const std::int64_t id = next_id();
      std::lock_guard<std::mutex> lock(mu_);
      spans_.push_back({"task " + e.name, e.start_seconds + offset,
                        e.end_seconds + offset, id, parent, phase_, -1,
                        1000 + e.worker});
    }
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self time of each span in spans() order: its duration minus the part
  /// of its interval its children cover.
  std::vector<double> self_seconds() const;

  /// Median self time (seconds) of the spans named `name`; 0 if none.
  double median_self(const std::string& name) const;

  /// Writes every span as a Chrome-trace complete event ("ph":"X") with its
  /// id, parent, phase and request id in args.
  void write_chrome_json(const std::string& path) const;

 private:
  static std::vector<std::int64_t>& stack() {
    thread_local std::vector<std::int64_t> open;
    return open;
  }
  std::int64_t next_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
  }
  void add(std::string name, double start, double end, std::int64_t id,
           std::int64_t parent, std::int64_t request) {
    const auto thread = static_cast<std::uint64_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) % 997);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(
        {std::move(name), start, end, id, parent, phase_, request, thread});
  }

  bool enabled_ = false;
  clock::time_point origin_ = clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::string phase_;
  std::int64_t next_id_ = 0;
};

inline std::vector<double> SpanRecorder::self_seconds() const {
  const std::vector<Span> all = spans();
  std::vector<std::size_t> slot_of_id;
  for (std::size_t s = 0; s < all.size(); ++s) {
    const auto id = static_cast<std::size_t>(all[s].id);
    if (slot_of_id.size() <= id) slot_of_id.resize(id + 1, all.size());
    slot_of_id[id] = s;
  }
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& c : all) {
    if (c.parent < 0 || static_cast<std::size_t>(c.parent) >= slot_of_id.size())
      continue;
    const std::size_t p = slot_of_id[static_cast<std::size_t>(c.parent)];
    if (p < all.size()) children[p].push_back({c.start, c.end});
  }
  std::vector<double> self(all.size());
  for (std::size_t s = 0; s < all.size(); ++s) {
    auto& iv = children[s];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double reach = all[s].start;
    for (auto [b, e] : iv) {
      b = std::max(b, reach);
      e = std::min(e, all[s].end);
      if (e > b) {
        covered += e - b;
        reach = e;
      }
    }
    self[s] = std::max(0.0, all[s].end - all[s].start - covered);
  }
  return self;
}

inline double SpanRecorder::median_self(const std::string& name) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_seconds();
  std::vector<double> picked;
  for (std::size_t s = 0; s < all.size(); ++s) {
    if (all[s].name == name) picked.push_back(self[s]);
  }
  return picked.empty() ? 0.0 : median(std::move(picked));
}

inline void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3);  // microseconds, ns resolution
  out << "{\"traceEvents\":[\n";
  bool first = true;
  for (const Span& s : spans()) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.thread << ",\"ts\":" << s.start * 1e6
        << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{\"id\":"
        << s.id << ",\"parent\":" << s.parent << ",\"phase\":\"" << s.phase
        << "\",\"request\":" << s.request << "}}";
  }
  out << "\n]}\n";
}

}  // namespace exaclim::bench
