#include "runtime/trace.hpp"

#include <sstream>

#include "common/io.hpp"
#include "linalg/kernels.hpp"

namespace exaclim::runtime {

void Trace::record(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(event));
}

void Trace::record_park(TraceEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  park_events_.push_back(std::move(event));
}

void Trace::set_counters(const TraceCounters& counters) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_ = counters;
}

void Trace::write_chrome_json(const std::string& path) const {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const TraceEvent& e, const char* name) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"" << name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << e.worker << ",\"ts\":" << e.start_seconds * 1e6
        << ",\"dur\":" << (e.end_seconds - e.start_seconds) * 1e6 << '}';
  };
  for (const TraceEvent& e : events_) emit(e, e.name.c_str());
  for (const TraceEvent& e : park_events_) emit(e, "(parked)");
  if (!first) out << ',';
  out << "{\"name\":\"scheduler_counters\",\"ph\":\"M\",\"pid\":1,\"args\":{"
      << "\"steal_hits\":" << counters_.steal_hits
      << ",\"steal_misses\":" << counters_.steal_misses
      << ",\"parks\":" << counters_.parks << ",\"wakes\":" << counters_.wakes
      << ",\"affinity_hits\":" << counters_.affinity_hits
      << ",\"affinity_misses\":" << counters_.affinity_misses
      << ",\"transient_retries\":" << counters_.transient_retries
      << ",\"recoveries\":" << counters_.recoveries << "}}";
  // The blocked kernels' cache blocking and the detected caches: the kernel
  // timings only make sense relative to these block sizes.
  const linalg::KernelTuning tuning = linalg::active_tuning();
  out << ",{\"name\":\"kernel_tuning\",\"ph\":\"M\",\"pid\":1,\"args\":{"
      << "\"mode\":\"" << linalg::tune_mode_name(tuning.mode) << '"'
      << ",\"f64_kc\":" << tuning.f64.kc << ",\"f64_mc\":" << tuning.f64.mc
      << ",\"f64_nc\":" << tuning.f64.nc << ",\"f32_kc\":" << tuning.f32.kc
      << ",\"f32_mc\":" << tuning.f32.mc << ",\"f32_nc\":" << tuning.f32.nc
      << ",\"l1d_bytes\":" << tuning.l1d_bytes
      << ",\"l2_bytes\":" << tuning.l2_bytes
      << ",\"l3_bytes\":" << tuning.l3_bytes << "}}";
  out << "]}\n";
  // Diagnostic output: atomic against a crash, but not worth an fsync.
  const std::string text = out.str();
  common::atomic_write_file(path, text.data(), text.size(),
                            common::SyncPolicy::None);
}

}  // namespace exaclim::runtime
