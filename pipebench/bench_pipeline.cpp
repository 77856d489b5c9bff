// Pipeline benchmark: the paper's whole path measured end to end and, in a
// traced run, layer by layer.
//
// The paper's claims are throughput claims about one pipeline: train an
// emulator from ESM output, factor its innovation covariance with the
// mixed-precision tiled Cholesky, store a small model instead of the archive,
// and regenerate ensembles (or serve draws) from it. Each workload below
// stresses a different part of that path through the library's public API:
//
//   train-daily  ClimateEmulator::train on a daily 37x72 ESM (Bluestein FFT
//                rings, trend/SHT/covariance bound)
//   factor       cholesky_tiled_parallel at n=4096 in DP and DP/SP/HP, on a
//                sphere kernel, a slowly decaying 1-D kernel, and with
//                periodic checkpoints (kernels, scheduler, DAG verification)
//   emulate      ClimateEmulator::emulate from a saved and reloaded model
//                (serial innovation draws + inverse SHT)
//   serve-open   SamplingService under open-loop Poisson arrivals, then a
//                rate ladder (many tiny latency-bound DAGs)
//
// Usage:
//   bench_pipeline --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//
// The seed generates every input. The last line on stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}: with --trace 0 the metrics
// are the end-to-end ones, with --trace 1 the per-layer ones, and the traced
// run also writes DIR/trace_<workload>.json (Chrome trace of bench-side
// spans). A meta line precedes it; human-readable diagnostics go to stderr.
// Any failed correctness check makes the exit code non-zero.
#include <malloc.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/dag_verify.hpp"
#include "bench_util.hpp"
#include "climate/synthetic_esm.hpp"
#include "climate/validate.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/emulator.hpp"
#include "core/serialize.hpp"
#include "fft/fft.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/solve.hpp"
#include "runtime/sampling_dag.hpp"
#include "runtime/scheduler.hpp"
#include "runtime/tiled_cholesky_rt.hpp"
#include "serve/sampler.hpp"
#include "serve/service.hpp"
#include "sht/sht.hpp"
#include "stats/covariance.hpp"
#include "stats/trend.hpp"

namespace {

using namespace exaclim;
using bench::SpanRecorder;
using Scope = SpanRecorder::Scope;
using steady = std::chrono::steady_clock;

/// Independent, reproducible stream seed for input `stream` of a run.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (stream * 0x9E3779B97F4A7C15ull);
  return common::splitmix64(s);
}

// --- result ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What the run prints as its last line, plus failure bookkeeping. An
/// operation fails by throwing, failing a correctness check, being shed or
/// missing its deadline.
struct Report {
  index_t attempted = 0;
  index_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Counts `count` attempted operations of which `failures` failed.
  void operations(index_t count, index_t failures, const std::string& what) {
    attempted += count;
    failed += failures;
    if (failures > 0) {
      std::fprintf(stderr, "FAILED: %s (%lld of %lld)\n", what.c_str(),
                   static_cast<long long>(failures),
                   static_cast<long long>(count));
    }
  }
  void operation(bool ok, const std::string& what) {
    operations(1, ok ? 0 : 1, what);
  }
  std::string json() const {
    std::string out = "{\"correct\": ";
    out += failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
      out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             value + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    return out + "}}";
  }
};

// --- inputs ------------------------------------------------------------------

constexpr index_t kTile = 128;

/// Exponential kernel of chordal distance (length 0.1) over n seeded points
/// on the unit sphere sorted by z, rows scaled by (1 + sqrt(i))^-1, nugget
/// 1e-4: correlation decays away from the diagonal, as in Eq. 9's U-hat.
linalg::Matrix sphere_spd(index_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::array<double, 3>> p(static_cast<std::size_t>(n));
  for (auto& q : p) {
    const double z = rng.uniform(-1.0, 1.0);
    const double phi = rng.uniform(0.0, kTwoPi);
    const double r = std::sqrt(1.0 - z * z);
    q = {r * std::cos(phi), r * std::sin(phi), z};
  }
  std::sort(p.begin(), p.end(),
            [](const auto& a, const auto& b) { return a[2] < b[2]; });
  std::vector<double> scale(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    scale[static_cast<std::size_t>(i)] =
        1.0 / (1.0 + std::sqrt(static_cast<double>(i)));
  }
  linalg::Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    const auto& pi = p[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < n; ++j) {
      const auto& pj = p[static_cast<std::size_t>(j)];
      const double d = std::sqrt((pi[0] - pj[0]) * (pi[0] - pj[0]) +
                                 (pi[1] - pj[1]) * (pi[1] - pj[1]) +
                                 (pi[2] - pj[2]) * (pi[2] - pj[2]));
      a(i, j) = scale[static_cast<std::size_t>(i)] *
                scale[static_cast<std::size_t>(j)] * std::exp(-d / 0.1);
    }
    a(i, i) += 1e-4;
  }
  return a;
}

/// 1-D exponential kernel (length 24) over seeded jittered positions plus
/// 1e-3 on the diagonal: far tiles stay small but non-negligible, which is
/// where DP/SP/HP has been measured slower than DP.
linalg::Matrix decay_spd(index_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        static_cast<double>(i) + rng.uniform(-0.4, 0.4);
  }
  linalg::Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(x[static_cast<std::size_t>(i)] -
                                   x[static_cast<std::size_t>(j)]) /
                         24.0);
    }
    a(i, i) += 1e-3;
  }
  return a;
}

/// One ESM/emulator configuration.
struct ModelShape {
  sht::GridShape grid;
  index_t band_limit;
  index_t steps_per_year;
  index_t years;
  index_t ensembles;
  linalg::PrecisionVariant variant;
};

// Daily data on a 29x60 grid: 60 = 2^2 3 5 longitudes (the factors of
// ERA5's 1440) and 56-point colatitude rings both take the Bluestein FFT
// path. R (T - P) = 1086 >= L^2 = 784, so the covariance is full rank and
// DP/HP factors cleanly. One train takes ~1.4 s on 4 cores, split about
// trend 45% / SHT 30% / covariance 20%, so a run holds enough of them for
// a steady median.
constexpr ModelShape kDaily{{29, 60}, 28, 365, 1, 3,
                            linalg::PrecisionVariant::DP_HP};
// The emulate/serve model: power-of-two grid (SHT minor), R (T - P) = 506 <
// L^2, so training jitters the covariance and factors it in DP.
constexpr ModelShape kSmall{{33, 64}, 32, 64, 4, 2,
                            linalg::PrecisionVariant::DP};

climate::SyntheticEsm generate(const ModelShape& shape, std::uint64_t seed) {
  climate::SyntheticEsmConfig cfg;
  cfg.band_limit = shape.band_limit;
  cfg.grid = shape.grid;
  cfg.num_years = shape.years;
  cfg.steps_per_year = shape.steps_per_year;
  cfg.num_ensembles = shape.ensembles;
  cfg.seed = derive(seed, 1);
  return climate::generate_synthetic_esm(cfg);
}

core::EmulatorConfig emulator_config(const ModelShape& shape) {
  core::EmulatorConfig cfg;
  cfg.band_limit = shape.band_limit;
  cfg.ar_order = 3;
  cfg.harmonics = 5;
  cfg.steps_per_year = shape.steps_per_year;
  cfg.cholesky_variant = shape.variant;
  cfg.tile_size = kTile;
  return cfg;
}

// --- correctness helpers -----------------------------------------------------

/// Unit roundoff of the lowest tile precision a variant uses.
double lowest_unit_roundoff(linalg::PrecisionVariant v) {
  switch (v) {
    case linalg::PrecisionVariant::DP: return std::ldexp(1.0, -53);
    case linalg::PrecisionVariant::DP_SP: return std::ldexp(1.0, -24);
    case linalg::PrecisionVariant::DP_SP_HP:
    case linalg::PrecisionVariant::DP_HP: return std::ldexp(1.0, -11);
  }
  return 1.0;
}

/// Randomized backward error of a factorization: max over four seeded
/// probes x of ||A x - L (L^T x)|| / ||A x||, reading L tile by tile in its
/// storage precision (diagonal tiles masked to their lower triangle).
double backward_error(const linalg::Matrix& a,
                      const linalg::TiledSymmetricMatrix& l,
                      std::uint64_t seed) {
  constexpr index_t kProbes = 4;
  const index_t n = a.rows();
  const index_t nb = l.tile_size();
  common::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n * kProbes));
  for (double& v : x) v = rng.normal();
  std::vector<double> ax(x.size(), 0.0);
  for (index_t i = 0; i < n; ++i) {
    const double* row = a.data() + static_cast<std::size_t>(i * n);
    for (index_t j = 0; j < n; ++j) {
      for (index_t k = 0; k < kProbes; ++k) {
        ax[static_cast<std::size_t>(i * kProbes + k)] +=
            row[j] * x[static_cast<std::size_t>(j * kProbes + k)];
      }
    }
  }
  // w = L^T x, then y = L w, one pass over the tiles each.
  std::vector<double> w(x.size(), 0.0);
  std::vector<double> y(x.size(), 0.0);
  std::vector<double> tile(static_cast<std::size_t>(nb * nb));
  for (int pass = 0; pass < 2; ++pass) {
    for (index_t ti = 0; ti < l.num_tile_rows(); ++ti) {
      for (index_t tj = 0; tj <= ti; ++tj) {
        const index_t rows = l.tile_rows(ti);
        const index_t cols = l.tile_rows(tj);
        l.tile(ti, tj).store_f64(tile.data());
        for (index_t r = 0; r < rows; ++r) {
          const index_t gr = ti * nb + r;
          const index_t c_end = ti == tj ? r + 1 : cols;
          for (index_t c = 0; c < c_end; ++c) {
            const index_t gc = tj * nb + c;
            const double v = tile[static_cast<std::size_t>(r * cols + c)];
            for (index_t k = 0; k < kProbes; ++k) {
              if (pass == 0) {
                w[static_cast<std::size_t>(gc * kProbes + k)] +=
                    v * x[static_cast<std::size_t>(gr * kProbes + k)];
              } else {
                y[static_cast<std::size_t>(gr * kProbes + k)] +=
                    v * w[static_cast<std::size_t>(gc * kProbes + k)];
              }
            }
          }
        }
      }
    }
  }
  double worst = 0.0;
  for (index_t k = 0; k < kProbes; ++k) {
    double num = 0.0;
    double den = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const auto s = static_cast<std::size_t>(i * kProbes + k);
      num += (ax[s] - y[s]) * (ax[s] - y[s]);
      den += ax[s] * ax[s];
    }
    const double e = std::sqrt(num / den);
    worst = std::isfinite(e) ? std::max(worst, e) : HUGE_VAL;
  }
  return worst;
}

/// The factor of a trained emulator is finite with a positive diagonal.
bool factor_sane(const linalg::Matrix& v) {
  for (index_t i = 0; i < v.rows(); ++i) {
    if (!(v(i, i) > 0.0)) return false;
    for (index_t j = 0; j <= i; ++j) {
      if (!std::isfinite(v(i, j))) return false;
    }
  }
  return true;
}

/// Per-point anomaly statistics (data minus the trained trend) the emulated
/// fields are checked against.
struct PointStats {
  std::vector<double> mean;
  std::vector<double> sd;
  std::vector<double> inflation;  ///< (1 + rho) / (1 - rho), rho = lag-1 ACF
  double samples = 0.0;
};

PointStats anomaly_stats(const climate::ClimateDataset& data,
                         const std::vector<std::vector<double>>& trend) {
  const index_t points = data.grid().num_points();
  const index_t steps = data.num_steps();
  PointStats s;
  s.mean.assign(static_cast<std::size_t>(points), 0.0);
  s.sd.assign(static_cast<std::size_t>(points), 0.0);
  s.inflation.assign(static_cast<std::size_t>(points), 1.0);
  s.samples = static_cast<double>(steps * data.num_ensembles());
  for (index_t p = 0; p < points; ++p) {
    const auto& m = trend[static_cast<std::size_t>(p)];
    double sum = 0.0;
    double sum2 = 0.0;
    double lag = 0.0;
    for (index_t r = 0; r < data.num_ensembles(); ++r) {
      double prev = 0.0;
      for (index_t t = 0; t < steps; ++t) {
        const double a = data.field(r, t)[static_cast<std::size_t>(p)] -
                         m[static_cast<std::size_t>(t)];
        sum += a;
        sum2 += a * a;
        if (t > 0) lag += a * prev;
        prev = a;
      }
    }
    const double mean = sum / s.samples;
    const double var = std::max(sum2 / s.samples - mean * mean, 1e-300);
    const double rho =
        std::clamp(lag / s.samples / var, 0.0, 0.95);  // mean ~ 0: cheap ACF
    s.mean[static_cast<std::size_t>(p)] = mean;
    s.sd[static_cast<std::size_t>(p)] = std::sqrt(var);
    s.inflation[static_cast<std::size_t>(p)] = (1.0 + rho) / (1.0 - rho);
  }
  return s;
}

/// Emulated fields are finite and, at every grid point, their anomaly mean
/// and sd agree with the training data's within `z_max` standard errors of
/// the difference (standard errors from both sample sizes, inflated for
/// the training data's lag-1 autocorrelation). Returns the worst z seen.
double fidelity_z(const PointStats& train, const PointStats& emu) {
  double worst = 0.0;
  for (std::size_t p = 0; p < train.mean.size(); ++p) {
    const double infl = std::max(train.inflation[p], emu.inflation[p]);
    const double se_mean =
        train.sd[p] * std::sqrt(infl * (1.0 / train.samples + 1.0 / emu.samples));
    const double se_sd =
        std::sqrt(infl * (0.5 / train.samples + 0.5 / emu.samples));
    const double z_mean = std::abs(emu.mean[p] - train.mean[p]) / se_mean;
    const double z_sd = std::abs(emu.sd[p] / train.sd[p] - 1.0) / se_sd;
    const double z = std::max(z_mean, z_sd);
    worst = std::isfinite(z) ? std::max(worst, z) : HUGE_VAL;
  }
  return worst;
}

// --- serving -----------------------------------------------------------------

constexpr double kLoRps = 1000.0;
constexpr double kHiRps = 4000.0;
constexpr double kLimitMs = 10.0;  // p90 latency limit of the rate ladder
constexpr std::size_t kKeptDraws = 32;

serve::ServiceOptions service_options(std::uint64_t seed) {
  serve::ServiceOptions options;
  options.queue_depth = 256;
  options.max_batch = 16;
  options.sampler.seed = derive(seed, 7);
  return options;
}

/// Outcome of one serving phase. A request that is shed, misses its
/// deadline or fails is offered but never completed.
struct ServePhase {
  /// Completed requests, in submission order: from the due time (open
  /// loop) or from submission (closed loop) to the result.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;     ///< generator lateness per submission
  index_t offered = 0;
  index_t completed = 0;
  index_t batches = 0;
  bool accounted = false;  ///< submitted == completed + shed + missed + failed
  /// Median over quarter-second windows of completions per second
  /// (closed loop only).
  double sustained_rps = 0.0;
  std::vector<std::pair<std::uint64_t, std::vector<double>>> kept;

  index_t failures() const { return offered - completed; }
  std::string summary() const {
    return bench::describe("p50", bench::percentile(latency_ms, 0.5), "ms") +
           " | " +
           bench::describe("p90", bench::percentile(latency_ms, 0.9), "ms") +
           " | " +
           bench::describe("p99", bench::percentile(latency_ms, 0.99), "ms") +
           (late_ms.empty() ? std::string()
                            : " | generator late " +
                                  bench::describe(
                                      "p99", bench::percentile(late_ms, 0.99),
                                      "ms")) +
           " | failed " + std::to_string(failures()) + "/" +
           std::to_string(offered) + " | batch width " +
           std::to_string(static_cast<double>(completed) /
                          static_cast<double>(std::max<index_t>(1, batches)));
  }
  /// Second-half median more than twice the first-half median: the queue
  /// grew during the phase.
  bool backlog() const {
    const std::size_t h = latency_ms.size() / 2;
    if (h < 10) return false;
    const std::vector<double> a(latency_ms.begin(), latency_ms.begin() + h);
    const std::vector<double> b(latency_ms.begin() + h, latency_ms.end());
    return bench::median(b) > 2.0 * bench::median(a);
  }
};

/// Drains the service and checks its books against what the client saw.
void settle(serve::SamplingService& service, ServePhase& out) {
  service.drain();
  const serve::ServiceCounters c = service.counters();
  out.batches = c.batches;
  out.accounted = c.submitted == c.completed + c.shed + c.deadline_missed +
                                     c.failed &&
                  c.submitted == out.offered && c.completed == out.completed;
}

/// Poisson arrivals at `rate` for `seconds` against a fresh SamplingService:
/// one submit thread (the caller) and one collector thread. Latency counts
/// from each request's due time, so generator stalls charge later requests.
ServePhase open_loop(const core::FrozenModel& model, std::uint64_t seed,
                   double rate, double seconds, std::uint64_t first_id,
                   SpanRecorder& spans) {
  ServePhase out;
  common::Rng arrivals(derive(seed, first_id));
  std::vector<double> due;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - arrivals.uniform()) / rate;
    if (t >= seconds) break;
    due.push_back(t);
  }
  out.offered = static_cast<index_t>(due.size());
  const std::size_t keep_stride = std::max<std::size_t>(1, due.size() / kKeptDraws);

  serve::SamplingService service(model, service_options(seed));
  struct Pending {
    std::uint64_t id;
    steady::time_point due;
    std::future<serve::SampleResult> result;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> pending;
  bool submitting = true;
  Scope phase(spans, "serve.open_loop");
  const std::int64_t phase_id = phase.id();
  const auto start = steady::now();

  std::thread collector([&] {
    for (;;) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !pending.empty() || !submitting; });
      if (pending.empty()) return;
      Pending p = std::move(pending.front());
      pending.pop_front();
      lock.unlock();
      try {
        serve::SampleResult r = p.result.get();
        const auto done = steady::now();
        out.latency_ms.push_back(
            std::chrono::duration<double, std::milli>(done - p.due).count());
        spans.record("serve.request", spans.at(p.due), spans.at(done),
                     phase_id, static_cast<std::int64_t>(p.id));
        ++out.completed;
        if ((p.id - first_id) % keep_stride == 0 && out.kept.size() < kKeptDraws) {
          out.kept.emplace_back(p.id, std::move(r.values));
        }
      } catch (const std::exception&) {
        // Not completed: counted by failures().
      }
    }
  });

  for (std::size_t i = 0; i < due.size(); ++i) {
    const auto when = start + std::chrono::duration_cast<steady::duration>(
                                  std::chrono::duration<double>(due[i]));
    std::this_thread::sleep_until(when);
    out.late_ms.push_back(
        std::chrono::duration<double, std::milli>(steady::now() - when).count());
    serve::SampleRequest request;
    request.request_id = first_id + i;
    try {
      Scope submit(spans, "serve.submit",
                   static_cast<std::int64_t>(request.request_id));
      auto result = service.submit(request);
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({request.request_id, when, std::move(result)});
    } catch (const serve::OverloadError&) {
      continue;  // shed
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    submitting = false;
  }
  cv.notify_one();
  collector.join();
  settle(service, out);
  return out;
}

/// The kept served draws are byte-identical to a direct BatchSampler run
/// for the same (seed, request_id).
bool draws_reproduce(const core::FrozenModel& model, std::uint64_t seed,
                     const ServePhase& phase) {
  if (phase.kept.empty()) return false;
  serve::BatchSampler sampler(model, service_options(seed).sampler);
  std::vector<serve::SampleRequest> requests(phase.kept.size());
  for (std::size_t k = 0; k < requests.size(); ++k) {
    requests[k].request_id = phase.kept[k].first;
  }
  sampler.run_batch(requests, false, 0);
  std::vector<double> column(static_cast<std::size_t>(sampler.dim()));
  for (std::size_t k = 0; k < requests.size(); ++k) {
    sampler.extract_column(static_cast<index_t>(k), column.data());
    const auto& served = phase.kept[k].second;
    if (served.size() != column.size() ||
        std::memcmp(served.data(), column.data(),
                    column.size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// A ladder step meets the limit: p90 within kLimitMs, nothing shed or
/// failed, and no growing backlog.
bool meets_limit(const ServePhase& step) {
  return step.failures() == 0 &&
         bench::percentile(step.latency_ms, 0.9).value <= kLimitMs &&
         !step.backlog();
}

/// Closed loop keeping kWindow requests outstanding for `seconds`: the draw
/// rate the service sustains with every batch full, and the latency a
/// client sees at that load. The window is a quarter of the queue, below
/// the occupancy that arms the degradation ladder.
ServePhase closed_loop(const core::FrozenModel& model, std::uint64_t seed,
                       double seconds, std::uint64_t first_id,
                       SpanRecorder& spans) {
  constexpr std::size_t kWindow = 64;
  ServePhase out;
  serve::SamplingService service(model, service_options(seed));
  struct InFlight {
    steady::time_point sent;
    std::future<serve::SampleResult> result;
  };
  std::deque<InFlight> in_flight;
  auto collect = [&] {
    try {
      in_flight.front().result.get();
      out.latency_ms.push_back(std::chrono::duration<double, std::milli>(
                                   steady::now() - in_flight.front().sent)
                                   .count());
      ++out.completed;
    } catch (const std::exception&) {
      // Not completed: counted by failures().
    }
    in_flight.pop_front();
  };
  Scope phase(spans, "serve.closed_loop");
  const common::Timer timer;
  std::vector<double> done_s;
  while (timer.seconds() < seconds) {
    while (in_flight.size() < kWindow) {
      serve::SampleRequest request;
      request.request_id = first_id + static_cast<std::uint64_t>(out.offered++);
      try {
        in_flight.push_back({steady::now(), service.submit(request)});
      } catch (const serve::OverloadError&) {
        // shed
      }
    }
    collect();
    done_s.push_back(timer.seconds());
  }
  constexpr double kRateWindow = 0.25;
  std::vector<double> rates(static_cast<std::size_t>(seconds / kRateWindow), 0.0);
  for (const double t : done_s) {
    const auto w = static_cast<std::size_t>(t / kRateWindow);
    if (w < rates.size()) rates[w] += 1.0 / kRateWindow;
  }
  out.sustained_rps = bench::median(rates);
  while (!in_flight.empty()) collect();
  settle(service, out);
  return out;
}

/// The highest Poisson rate meeting the limit: half-second steps from kHiRps
/// up, x1.15 until a step fails, refined by three geometric bisections.
/// Capacity moves with every stall of a shared machine, so this is a
/// per-layer diagnostic, not a gated metric.
double max_rate(const core::FrozenModel& model, std::uint64_t seed,
                std::uint64_t first_id, SpanRecorder& spans) {
  auto passes = [&](double rate) {
    const ServePhase s = open_loop(model, seed, rate, 0.5, first_id, spans);
    first_id += static_cast<std::uint64_t>(s.offered);
    std::fprintf(stderr, "  ladder %6.0f rps: %s -> %s\n", rate,
                 s.summary().c_str(), meets_limit(s) ? "pass" : "fail");
    return meets_limit(s);
  };
  double pass = 0.0;
  double fail = 0.0;
  for (double rate = kHiRps; fail == 0.0 && rate < 20 * kHiRps; rate *= 1.15) {
    (passes(rate) ? pass : fail) = rate;
    if (pass == 0.0) return 0.0;
  }
  if (fail == 0.0) return pass;
  for (int b = 0; b < 3; ++b) {
    const double rate = std::sqrt(pass * fail);
    (passes(rate) ? pass : fail) = rate;
  }
  return pass;
}

// --- workloads ---------------------------------------------------------------

/// What one measured stretch of a workload produced.
struct Measurement {
  std::vector<double> latency_ms;  ///< per operation (or request)
  double throughput = 0.0;         ///< work items per second
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds every input from `seed` (timed as set-up, repeated).
  virtual void setup(std::uint64_t seed) = 0;
  /// Runs operations for about `seconds`, checking each one's output.
  virtual Measurement measure(double seconds, Report& report,
                              SpanRecorder& spans) = 0;
  /// Prints the workload's named diagnostics to stderr.
  virtual void diagnose() const = 0;
};

/// Runs `op` (returning its wall seconds) until `seconds` have passed and at
/// least `min_ops` operations ran; returns each operation's milliseconds.
template <typename Op>
std::vector<double> repeat(double seconds, int min_ops, Op&& op) {
  std::vector<double> ms;
  const common::Timer timer;
  while (timer.seconds() < seconds || static_cast<int>(ms.size()) < min_ops) {
    ms.push_back(op() * 1e3);
  }
  return ms;
}

/// Work items per second at the median operation time: a median, like the
/// latency, so a stall of the shared machine during one operation does not
/// move it.
double per_second(double items_per_op, const std::vector<double>& op_ms) {
  return items_per_op / (bench::median(op_ms) * 1e-3);
}

class TrainDaily final : public Workload {
 public:
  void setup(std::uint64_t seed) override {
    esm_ = generate(kDaily, seed);
    reference_ = {};
  }

  Measurement measure(double seconds, Report& report,
                      SpanRecorder& spans) override {
    Measurement m;
    m.latency_ms = repeat(seconds, 3, [&] {
      core::ClimateEmulator emulator(emulator_config(kDaily));
      bool ok = false;
      double secs = 0.0;
      try {
        const common::Timer timer;
        {
          Scope span(spans, "core.train");
          reports_.push_back(emulator.train(esm_.data, esm_.forcing));
        }
        secs = timer.seconds();
        // Training is bit-reproducible: every rep must match the first.
        const linalg::Matrix& v = emulator.cholesky_factor();
        if (reference_.rows() == 0 && factor_sane(v)) reference_ = v;
        ok = reference_.rows() == v.rows() &&
             std::memcmp(reference_.data(), v.data(),
                         static_cast<std::size_t>(v.rows() * v.cols()) *
                             sizeof(double)) == 0;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "train threw: %s\n", e.what());
      }
      report.operation(ok, "train-daily: factor not finite or not reproducible");
      return secs;
    });
    m.throughput = per_second(esm_.data.total_points(), m.latency_ms);
    return m;
  }

  void diagnose() const override {
    std::vector<double> total, trend, sht, cov, chol;
    for (const auto& r : reports_) {
      total.push_back(r.total_seconds);
      trend.push_back(r.trend_seconds);
      sht.push_back(r.sht_seconds);
      cov.push_back(r.covariance_seconds);
      chol.push_back(r.cholesky_seconds);
    }
    std::fprintf(stderr,
                 "  train_s %.3f (n=%zu) | trend %.3f sht %.3f covariance %.3f "
                 "cholesky %.4f\n",
                 bench::median(total), total.size(), bench::median(trend),
                 bench::median(sht), bench::median(cov), bench::median(chol));
  }

 private:
  climate::SyntheticEsm esm_;
  linalg::Matrix reference_;
  std::vector<core::TrainReport> reports_;
};

/// One factorization: rounds `a` into the variant's tiles, times
/// cholesky_tiled_parallel, and checks the backward error against
/// n u_low of the lowest tile precision.
struct FactorResult {
  double seconds = 0.0;
  double backward_error = 0.0;
  bool ok = false;
  index_t checkpoints = 0;
  std::uintmax_t checkpoint_bytes = 0;
};

FactorResult factor_once(const linalg::Matrix& a, linalg::PrecisionVariant v,
                         const std::string& checkpoint, unsigned threads,
                         std::uint64_t seed, SpanRecorder& spans) {
  const index_t n = a.rows();
  const index_t nt = (n + kTile - 1) / kTile;
  FactorResult out;
  try {
    std::optional<linalg::TiledSymmetricMatrix> tiled;
    {
      Scope span(spans, "linalg.from_dense");
      tiled.emplace(linalg::TiledSymmetricMatrix::from_dense(
          a, kTile, linalg::make_band_policy(nt, v)));
    }
    runtime::RtCholeskyOptions options;
    options.threads = threads;
    if (!checkpoint.empty()) {
      // Four checkpoint rounds per factorization, fully synced.
      const index_t kernel_tasks =
          nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6;
      options.ft.checkpoint_path = checkpoint;
      options.ft.checkpoint_every = (kernel_tasks + 3) / 4;
      options.ft.checkpoint_sync = common::SyncPolicy::Full;
    }
    const common::Timer timer;
    {
      Scope span(spans, "runtime.cholesky_tiled_parallel");
      out.checkpoints =
          runtime::cholesky_tiled_parallel(*tiled, options).checkpoints_written;
    }
    out.seconds = timer.seconds();
    if (!checkpoint.empty()) {
      out.checkpoint_bytes = std::filesystem::file_size(checkpoint);
      std::filesystem::remove(checkpoint);
    }
    out.backward_error = backward_error(a, *tiled, seed);
    out.ok = out.backward_error <=
             static_cast<double>(n) * lowest_unit_roundoff(v);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "factorization threw: %s\n", e.what());
  }
  return out;
}

class Factor final : public Workload {
 public:
  static constexpr index_t kN = 4096;

  explicit Factor(std::string work_dir) : work_dir_(std::move(work_dir)) {}

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    sphere_ = sphere_spd(kN, derive(seed, 2));
    decay_ = decay_spd(kN, derive(seed, 3));
  }

  Measurement measure(double seconds, Report& report,
                      SpanRecorder& spans) override {
    using V = linalg::PrecisionVariant;
    struct Phase {
      const char* name;
      const linalg::Matrix* a;
      V variant;
      bool checkpoint;
    };
    const Phase phases[] = {{"dp", &sphere_, V::DP, false},
                            {"mp", &sphere_, V::DP_SP_HP, false},
                            {"decay_mp", &decay_, V::DP_SP_HP, false},
                            {"ckpt", &sphere_, V::DP_SP_HP, true}};
    Measurement m;
    m.latency_ms = repeat(seconds, 3, [&] {
      double round = 0.0;
      for (std::size_t p = 0; p < 4; ++p) {
        const Phase& ph = phases[p];
        Scope span(spans, std::string("factor.") + ph.name);
        const FactorResult r = factor_once(
            *ph.a, ph.variant,
            ph.checkpoint ? work_dir_ + "/factor.ckpt" : std::string(), 0,
            derive(seed_, 4 + p), spans);
        char what[96];
        std::snprintf(what, sizeof(what), "factor %s: backward error %.3g",
                      ph.name, r.backward_error);
        report.operation(r.ok, what);
        seconds_[p].push_back(r.seconds);
        errors_[p] = std::max(errors_[p], r.backward_error);
        round += r.seconds;
      }
      return round;
    });
    m.throughput = per_second(4.0 * kN * kN * kN / 3.0, m.latency_ms);
    return m;
  }

  void diagnose() const override {
    const char* names[] = {"factor_dp_s", "factor_mp_s", "factor_decay_mp_s",
                           "factor_ckpt_s"};
    for (std::size_t p = 0; p < 4; ++p) {
      std::fprintf(stderr, "  %-18s %.4f (n=%zu) | backward error max %.3g\n",
                   names[p], bench::median(seconds_[p]), seconds_[p].size(),
                   errors_[p]);
    }
  }

 private:
  std::string work_dir_;
  std::uint64_t seed_ = 0;
  linalg::Matrix sphere_;
  linalg::Matrix decay_;
  std::array<std::vector<double>, 4> seconds_;
  std::array<double, 4> errors_{};
};

/// Trains the emulate/serve model on `esm`.
core::ClimateEmulator train_small(const climate::SyntheticEsm& esm) {
  core::ClimateEmulator emulator(emulator_config(kSmall));
  emulator.train(esm.data, esm.forcing);
  return emulator;
}

class Emulate final : public Workload {
 public:
  static constexpr index_t kSteps = 256;
  static constexpr index_t kMembers = 16;
  static constexpr double kPoints = static_cast<double>(
      kSteps * kMembers * kSmall.grid.nlat * kSmall.grid.nlon);

  explicit Emulate(std::string work_dir) : work_dir_(std::move(work_dir)) {}

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    esm_ = generate(kSmall, seed);
    const std::string path = work_dir_ + "/emulate_model.bin";
    core::save_emulator(train_small(esm_), path, core::FactorStorage::FP64);
    emulator_ = std::make_unique<core::ClimateEmulator>(core::load_emulator(path));
    std::filesystem::remove(path);
    trend_.clear();
    for (const auto& tm : emulator_->trend_models()) {
      trend_.push_back(stats::trend_series(tm, kSteps, esm_.forcing));
    }
    train_stats_ = anomaly_stats(esm_.data, trend_);
  }

  Measurement measure(double seconds, Report& report,
                      SpanRecorder& spans) override {
    Measurement m;
    m.latency_ms = repeat(seconds, 3, [&] {
      bool ok = false;
      double secs = 0.0;
      double z = HUGE_VAL;
      try {
        const common::Timer timer;
        climate::ClimateDataset out;
        {
          Scope span(spans, "core.emulate");
          out = emulator_->emulate(kSteps, kMembers, esm_.forcing,
                                   derive(seed_, 100 + calls_++));
        }
        secs = timer.seconds();
        z = fidelity_z(train_stats_, anomaly_stats(out, trend_));
        worst_z_ = std::max(worst_z_, z);
        ok = z <= kFidelityZ;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "emulate threw: %s\n", e.what());
      }
      char what[64];
      std::snprintf(what, sizeof(what), "emulate: fidelity z %.3g", z);
      report.operation(ok, what);
      return secs;
    });
    m.throughput = per_second(kPoints, m.latency_ms);
    points_per_s_ = m.throughput;
    return m;
  }

  void diagnose() const override {
    std::fprintf(stderr,
                 "  emulate_points_per_s %.4g | worst fidelity z %.2f "
                 "(limit %.1f)\n",
                 points_per_s_, worst_z_, kFidelityZ);
  }

 private:
  // Six standard errors at any of the grid's 2112 points: a false alarm
  // needs a > 1e-9 per-point event. At these sample sizes (512 correlated
  // training values per point) that catches an sd scaled by 1.25 or a mean
  // shifted by about 1 K, not subtler errors.
  static constexpr double kFidelityZ = 6.0;

  std::string work_dir_;
  std::uint64_t seed_ = 0;
  climate::SyntheticEsm esm_;
  std::unique_ptr<core::ClimateEmulator> emulator_;
  std::vector<std::vector<double>> trend_;
  PointStats train_stats_;
  std::uint64_t calls_ = 0;
  double worst_z_ = 0.0;
  double points_per_s_ = 0.0;
};

class ServeOpen final : public Workload {
 public:
  explicit ServeOpen(std::string work_dir) : work_dir_(std::move(work_dir)) {}

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    model_.reset();
    const std::string path = work_dir_ + "/serve_model.bin";
    core::save_emulator(train_small(generate(kSmall, seed)), path,
                        core::FactorStorage::FP64);
    model_ = std::make_unique<core::FrozenModel>(path);
    model_->factor();  // CRC-validates and faults in the mapping
    // Warm-up: one full-width batch through the sampling engine.
    serve::BatchSampler sampler(*model_, service_options(seed).sampler);
    sampler.run_batch(std::vector<serve::SampleRequest>(16), false, 0);
  }

  /// A quarter of the time open-loop at `lo`, a quarter at `hi`, and half
  /// saturated: the reported latency and throughput. Open-loop latencies
  /// at these rates follow the wake-up latency of idle vCPUs, which on a
  /// shared VM moved their medians by 15-30% between identical runs, so
  /// they are diagnostics (and per-layer metrics); at saturation no vCPU
  /// idles and runs agree within about 10%.
  Measurement measure(double seconds, Report& report,
                      SpanRecorder& spans) override {
    lo_ = open_loop(*model_, seed_, kLoRps, seconds / 4, next_id_, spans);
    next_id_ += static_cast<std::uint64_t>(lo_.offered);
    account(lo_, "lo", report);
    report.operation(draws_reproduce(*model_, seed_, lo_),
                     "serve: served draws differ from a direct BatchSampler run");

    hi_ = open_loop(*model_, seed_, kHiRps, seconds / 4, next_id_, spans);
    next_id_ += static_cast<std::uint64_t>(hi_.offered);
    account(hi_, "hi", report);

    saturated_ = closed_loop(*model_, seed_, seconds / 2, next_id_, spans);
    next_id_ += static_cast<std::uint64_t>(saturated_.offered);
    account(saturated_, "saturated", report);
    return {saturated_.latency_ms, saturated_.sustained_rps};
  }

  void diagnose() const override {
    std::fprintf(stderr, "  serve_lo: %s\n  serve_hi: %s\n  saturated: %s\n",
                 lo_.summary().c_str(), hi_.summary().c_str(),
                 saturated_.summary().c_str());
    std::fprintf(stderr, "  serve_saturated_rps %.1f\n", saturated_.sustained_rps);
  }

 private:
  /// Every offered request is one operation: shed, missed or failed ones
  /// count as failures, and the service's books must balance.
  static void account(const ServePhase& phase, const char* name, Report& report) {
    report.operations(phase.offered, phase.failures(),
                      std::string("serve ") + name + ": requests not completed");
    report.operation(phase.accounted,
                     std::string("serve ") + name + ": accounting invariant");
  }

  std::string work_dir_;
  std::uint64_t seed_ = 0;
  std::unique_ptr<core::FrozenModel> model_;
  std::uint64_t next_id_ = 1;
  ServePhase lo_;
  ServePhase hi_;
  ServePhase saturated_;
};

// --- per-layer probes (traced run only) --------------------------------------

/// Calls `fn` `reps` times, each inside a span named `name` (after an
/// untimed `prepare`), and returns the median self time in seconds.
template <typename Fn, typename Prepare>
double probe(SpanRecorder& spans, const std::string& name, int reps, Fn&& fn,
             Prepare&& prepare) {
  for (int r = 0; r < reps; ++r) {
    prepare();
    Scope span(spans, name);
    fn();
  }
  return spans.median_self(name);
}

template <typename Fn>
double probe(SpanRecorder& spans, const std::string& name, int reps, Fn&& fn) {
  return probe(spans, name, reps, std::forward<Fn>(fn), [] {});
}

/// Isolated tile-kernel rates at tile 128.
template <typename T>
void probe_kernels(const char* tag, SpanRecorder& spans, Report& out) {
  const index_t nb = kTile;
  const auto count = static_cast<std::size_t>(nb * nb);
  common::Rng rng(42);
  std::vector<T> a(count), b(count), c(count), spd(count), work(count);
  for (std::size_t i = 0; i < count; ++i) {
    a[i] = static_cast<T>(rng.normal());
    b[i] = static_cast<T>(rng.normal());
    c[i] = static_cast<T>(rng.normal());
  }
  const linalg::Matrix s = decay_spd(nb, 5);
  for (std::size_t i = 0; i < count; ++i) spd[i] = static_cast<T>(s.data()[i]);
  std::vector<T> l = spd;
  if constexpr (std::is_same_v<T, double>) {
    linalg::potrf_lower_f64(l.data(), nb);
  } else {
    linalg::potrf_lower_f32(l.data(), nb);
  }
  const double n3 = static_cast<double>(nb) * nb * nb;
  auto rate = [&](const char* kernel, double flops, auto&& body,
                  auto&& prepare) {
    const std::string name = std::string("linalg.") + kernel;
    const double secs =
        probe(spans, name + "." + tag, 30, body, prepare);
    out.add(name + "_gflops." + tag, flops / secs * 1e-9, "GF/s");
  };
  const auto none = [] {};
  const auto fresh_b = [&] { work = b; };
  const auto fresh_spd = [&] { work = spd; };
  if constexpr (std::is_same_v<T, double>) {
    rate("gemm", 2.0 * n3, [&] {
      linalg::gemm_nt_minus_f64(a.data(), b.data(), c.data(), nb, nb, nb);
    }, none);
    rate("syrk", n3, [&] {
      linalg::syrk_ln_minus_f64(a.data(), c.data(), nb, nb);
    }, none);
    rate("trsm", n3, [&] {
      linalg::trsm_rlt_f64(l.data(), work.data(), nb, nb);
    }, fresh_b);
    rate("potrf", n3 / 3.0, [&] {
      linalg::potrf_lower_f64(work.data(), nb);
    }, fresh_spd);
  } else {
    rate("gemm", 2.0 * n3, [&] {
      linalg::gemm_nt_minus_f32(a.data(), b.data(), c.data(), nb, nb, nb);
    }, none);
    rate("syrk", n3, [&] {
      linalg::syrk_ln_minus_f32(a.data(), c.data(), nb, nb);
    }, none);
    rate("trsm", n3, [&] {
      linalg::trsm_rlt_f32(l.data(), work.data(), nb, nb);
    }, fresh_b);
    rate("potrf", n3 / 3.0, [&] {
      linalg::potrf_lower_f32(work.data(), nb);
    }, fresh_spd);
  }
}

/// The runtime layer at factor dimension n: the four factor phases, a
/// single-thread baseline, and one traced DP/SP/HP run on a bench-built
/// CholeskyGraph whose task bodies are wrapped to time each task, giving
/// per-kind busy time, in-situ rates and the measured critical path.
void probe_runtime(index_t n, std::uint64_t seed, const std::string& work_dir,
                   SpanRecorder& spans, Report& out) {
  using V = linalg::PrecisionVariant;
  const linalg::Matrix sphere = sphere_spd(n, derive(seed, 20));
  const linalg::Matrix decay = decay_spd(n, derive(seed, 21));
  const std::string ckpt = work_dir + "/probe.ckpt";
  const FactorResult dp = factor_once(sphere, V::DP, "", 0, seed, spans);
  const FactorResult mp = factor_once(sphere, V::DP_SP_HP, "", 0, seed, spans);
  const FactorResult dmp = factor_once(decay, V::DP_SP_HP, "", 0, seed, spans);
  const FactorResult ck = factor_once(sphere, V::DP_SP_HP, ckpt, 0, seed, spans);
  const FactorResult serial = factor_once(sphere, V::DP, "", 1, seed, spans);
  for (const FactorResult* r : {&dp, &mp, &dmp, &ck, &serial}) {
    if (!r->ok) throw Error("runtime probe factorization failed its check");
  }
  out.add("runtime.factor_s.dp", dp.seconds, "s");
  out.add("runtime.factor_s.mp", mp.seconds, "s");
  out.add("runtime.factor_s.decay_mp", dmp.seconds, "s");
  out.add("runtime.factor_s.ckpt", ck.seconds, "s");
  out.add("linalg.backward_err.mp", mp.backward_error, "1");
  out.add("runtime.factor_dp_1t_s", serial.seconds, "s");
  out.add("runtime.speedup_vs_1t", serial.seconds / dp.seconds, "ratio");
  out.add("runtime.ckpt_bytes", static_cast<double>(ck.checkpoint_bytes), "B");
  out.add("runtime.ckpt_s_per_write",
          (ck.seconds - mp.seconds) / static_cast<double>(ck.checkpoints), "s");

  const index_t nt = (n + kTile - 1) / kTile;
  auto tiled = linalg::TiledSymmetricMatrix::from_dense(
      sphere, kTile, linalg::make_band_policy(nt, V::DP_SP_HP));
  std::unique_ptr<runtime::CholeskyGraph> cholesky;
  const double build_s = probe(spans, "runtime.cholesky_graph", 1, [&] {
    cholesky = std::make_unique<runtime::CholeskyGraph>(
        tiled, linalg::ConversionPlacement::Sender);
  });
  runtime::TaskGraph& graph = cholesky->graph();
  const double verify_s = probe(spans, "analysis.verify_dag.cholesky", 1,
                                [&] { analysis::verify_dag_or_throw(graph); });
  out.add("runtime.dag_build_ms", build_s * 1e3, "ms");
  out.add("analysis.verify_ms.cholesky", verify_s * 1e3, "ms");

  const auto tasks = static_cast<std::size_t>(graph.num_tasks());
  std::vector<double> t0(tasks), t1(tasks);
  for (std::size_t id = 0; id < tasks; ++id) {
    runtime::Task& task = graph.task(static_cast<runtime::TaskId>(id));
    task.fn = [body = std::move(task.fn), &t0, &t1, &spans, id] {
      t0[id] = spans.now();
      body();
      t1[id] = spans.now();
    };
  }
  runtime::Trace trace;
  runtime::SchedulerOptions options;
  options.collect_trace = true;
  options.verify = runtime::VerifyMode::Off;  // verified just above
  runtime::RunStats stats;
  {
    Scope span(spans, "runtime.execute");
    const double offset = spans.now();
    stats = runtime::execute(graph, options, &trace);
    spans.import_tasks(trace, span.id(), offset);
  }

  using K = runtime::TaskKind;
  const std::pair<K, const char*> kinds[] = {{K::Potrf, "potrf"},
                                             {K::Trsm, "trsm"},
                                             {K::Syrk, "syrk"},
                                             {K::Gemm, "gemm"},
                                             {K::Convert, "convert"}};
  for (const auto& [kind, name] : kinds) {
    double busy = 0.0;
    double flops = 0.0;
    for (std::size_t id = 0; id < tasks; ++id) {
      const runtime::Task& task = graph.task(static_cast<runtime::TaskId>(id));
      if (task.kind != kind) continue;
      busy += t1[id] - t0[id];
      flops += task.weight;
    }
    out.add(std::string("runtime.busy_s.") + name, busy, "s");
    if (kind != K::Convert) {
      out.add(std::string("runtime.insitu_gflops.") + name,
              busy > 0.0 ? flops / busy * 1e-9 : 0.0, "GF/s");
    }
  }
  // Longest path over graph edges with measured task durations (task ids
  // are a topological order: successors always have larger ids).
  double critical = 0.0;
  std::vector<double> finish(tasks);
  for (std::size_t id = 0; id < tasks; ++id) finish[id] = t1[id] - t0[id];
  for (std::size_t id = 0; id < tasks; ++id) {
    critical = std::max(critical, finish[id]);
    for (runtime::TaskId s : graph.task(static_cast<runtime::TaskId>(id)).successors) {
      const auto si = static_cast<std::size_t>(s);
      finish[si] = std::max(finish[si], finish[id] + t1[si] - t0[si]);
    }
  }
  const auto& c = stats.counters;
  out.add("runtime.efficiency", stats.parallel_efficiency(), "frac");
  out.add("runtime.steals", static_cast<double>(stats.steals), "count");
  out.add("runtime.parks", static_cast<double>(c.parks), "count");
  out.add("runtime.affinity_hit_frac",
          static_cast<double>(c.affinity_hits) /
              static_cast<double>(std::max<index_t>(1, c.affinity_hits + c.affinity_misses)),
          "frac");
  out.add("runtime.critical_path_s", critical, "s");
  out.add("runtime.wall_over_cp", stats.seconds / critical, "ratio");

  // Park/wake cost: a one-task graph dispatched after 10 ms of idling.
  runtime::TaskGraph one;
  runtime::Task noop;
  noop.fn = [] {};
  noop.name = "noop";
  one.submit(std::move(noop));
  out.add("runtime.idle_dispatch_us",
          1e6 * probe(spans, "runtime.idle_dispatch", 20,
                      [&] { runtime::execute(one); },
                      [] { std::this_thread::sleep_for(std::chrono::milliseconds(10)); }),
          "us");
}

/// Model-side layers at `shape`: data, training stages, storage, transforms
/// and the sampling engine, plus a short open-loop serving session.
void probe_model(const ModelShape& shape, std::uint64_t seed,
                 const std::string& work_dir, SpanRecorder& spans,
                 Report& out) {
  climate::SyntheticEsm esm;
  out.add("climate.generate_s", probe(spans, "climate.generate", 1, [&] {
            esm = generate(shape, seed);
          }), "s");
  out.add("climate.validate_s", probe(spans, "climate.validate_dataset", 1, [&] {
            climate::validate_dataset(std::as_const(esm.data));
          }), "s");
  core::ClimateEmulator emulator(emulator_config(shape));
  core::TrainReport train;
  probe(spans, "core.train", 1,
        [&] { train = emulator.train(esm.data, esm.forcing); });
  out.add("stats.trend_s", train.trend_seconds, "s");
  out.add("stats.ar_s", train.ar_seconds, "s");
  out.add("stats.covariance_s", train.covariance_seconds, "s");
  out.add("sht.transform_s", train.sht_seconds, "s");
  out.add("runtime.train_cholesky_s", train.cholesky_seconds, "s");

  // Covariance at this model's innovation shape: N = R (T - P) samples of
  // dimension L^2, flops = N n^2.
  const index_t n = shape.band_limit * shape.band_limit;
  const index_t samples =
      shape.ensembles * (shape.years * shape.steps_per_year - 3);
  linalg::Matrix innovations(samples, n);
  common::Rng rng(derive(seed, 30));
  for (index_t i = 0; i < samples * n; ++i) innovations.data()[i] = rng.normal();
  const double cov_s = probe(spans, "stats.prepare_covariance", 1,
                             [&] { stats::prepare_covariance(innovations); });
  out.add("stats.covariance_gflops",
          static_cast<double>(samples) * n * n / cov_s * 1e-9, "GF/s");

  const std::string path = work_dir + "/probe_model.bin";
  out.add("core.save_s", probe(spans, "core.save_emulator", 1, [&] {
            core::save_emulator(emulator, path, core::FactorStorage::FP64);
          }), "s");
  const auto bytes = static_cast<double>(std::filesystem::file_size(path));
  out.add("core.model_bytes", bytes, "B");
  out.add("core.storage_ratio", esm.data.total_points() * 8.0 / bytes, "ratio");
  out.add("core.load_s", probe(spans, "core.load_emulator", 1,
                               [&] { core::load_emulator(path); }), "s");
  std::unique_ptr<core::FrozenModel> model;
  out.add("core.open_s", probe(spans, "core.frozen_model_open", 1, [&] {
            model = std::make_unique<core::FrozenModel>(path);
            model->factor();
          }), "s");

  const sht::SHTPlan plan(shape.band_limit, shape.grid);
  std::vector<cplx> coeffs;
  out.add("sht.analyze_ms", 1e3 * probe(spans, "sht.analyze", 20, [&] {
            coeffs = plan.analyze(esm.data.field(0, 0));
          }), "ms");
  out.add("sht.synthesize_ms", 1e3 * probe(spans, "sht.synthesize", 20,
                                           [&] { plan.synthesize(coeffs); }),
          "ms");
  for (const auto& [tag, len] :
       {std::pair<const char*, index_t>{"nlon", shape.grid.nlon},
        {"colat", 2 * (shape.grid.nlat - 1)}}) {
    const auto fft = fft::get_plan(len);
    std::vector<cplx> ring(static_cast<std::size_t>(len), cplx(1.0, 0.5));
    out.add(std::string("fft.ring_us.") + tag,
            1e6 * probe(spans, std::string("fft.forward.") + tag, 200,
                        [&] { fft->forward(ring.data()); }),
            "us");
  }

  common::Rng draw(derive(seed, 31));
  out.add("linalg.sample_mvn_us", 1e6 * probe(spans, "linalg.sample_mvn", 50, [&] {
            linalg::sample_mvn(emulator.cholesky_factor(), draw);
          }), "us");
  const linalg::PackedFactorView view = model->factor();
  std::vector<double> z(static_cast<std::size_t>(n * 16), 0.5);
  std::vector<double> x(z.size());
  for (const index_t k : {1, 16}) {
    const std::string tag = ".k" + std::to_string(k);
    out.add("linalg.sample_apply_us" + tag,
            1e6 * probe(spans, "linalg.sample_apply_packed" + tag, 30, [&] {
              linalg::sample_apply_packed(view, 0, n, 0, n, z.data(), x.data(), k, 0);
            }), "us");
    serve::BatchSampler sampler(*model, service_options(seed).sampler);
    const std::vector<serve::SampleRequest> batch(static_cast<std::size_t>(k));
    out.add("serve.run_batch_us" + tag,
            1e6 * probe(spans, "serve.run_batch" + tag, 50,
                        [&] { sampler.run_batch(batch, false, 0); }),
            "us");
  }
  runtime::TaskGraph sampling;
  out.add("runtime.sampling_dag_build_us",
          1e6 * probe(spans, "runtime.build_sampling_dag", 30, [&] {
            sampling = runtime::build_sampling_dag(view, z.data(), x.data(), 16,
                                                   nullptr);
          }), "us");
  out.add("analysis.verify_us.sampling",
          1e6 * probe(spans, "analysis.verify_dag.sampling", 30,
                      [&] { analysis::verify_dag_or_throw(sampling); }),
          "us");

  const ServePhase lo = open_loop(*model, seed, kLoRps, 2.0, 1, spans);
  const ServePhase hi = open_loop(*model, seed, kHiRps, 1.0, 1 + lo.offered, spans);
  for (const auto& [tag, phase] : {std::pair<const char*, const ServePhase*>{"lo", &lo},
                                   {"hi", &hi}}) {
    for (const auto& [pname, p] : {std::pair<const char*, double>{"p50", 0.5},
                                   {"p90", 0.9}, {"p99", 0.99}}) {
      out.add(std::string("serve.") + pname + "_ms." + tag,
              bench::percentile(phase->latency_ms, p).value, "ms");
    }
  }
  out.add("serve.max_rps",
          max_rate(*model, seed, 1 + lo.offered + hi.offered, spans), "1/s");
  out.add("serve.submit_us", spans.median_self("serve.submit") * 1e6, "us");
  out.add("serve.batch_width_mean",
          static_cast<double>(lo.completed + hi.completed) /
              static_cast<double>(std::max<index_t>(1, lo.batches + hi.batches)),
          "count");
  std::vector<double> late = lo.late_ms;
  late.insert(late.end(), hi.late_ms.begin(), hi.late_ms.end());
  const double late_p99 = bench::percentile(late, 0.99).value;
  out.add("serve.gen_late_p99_ms", late_p99, "ms");
  if (late_p99 > 1.0) {
    std::fprintf(stderr, "WARNING: generator ran %.2f ms late at p99 (> 1 ms): "
                 "serving numbers of this run are invalid\n", late_p99);
  }
  std::filesystem::remove(path);
}

// --- command line ------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  ModelShape model;  ///< shape of the model-side probes
  index_t factor_n;  ///< dimension of the runtime probes
};

constexpr WorkloadSpec kWorkloads[] = {
    {"train-daily", kDaily, 1024},
    {"factor", kSmall, Factor::kN},
    {"emulate", kSmall, 1024},
    {"serve-open", kSmall, 1024},
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& work_dir) {
  if (name == "train-daily") return std::make_unique<TrainDaily>();
  if (name == "factor") return std::make_unique<Factor>(work_dir);
  if (name == "emulate") return std::make_unique<Emulate>(work_dir);
  return std::make_unique<ServeOpen>(work_dir);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "bench_pipeline: %s\nusage: bench_pipeline --workload "
               "train-daily|factor|emulate|serve-open --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  const bool known = std::any_of(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const WorkloadSpec& w) { return args.workload == w.name; });
  if (!known) usage("unknown or missing --workload");
  if (!(args.seconds > 0.0 && args.seconds <= 60.0)) {
    usage("--seconds must be in (0, 60]");
  }
  return args;
}

constexpr int kSetups = 5;

int run(const Args& args) {
  std::filesystem::create_directories(args.work_dir);
  std::printf("{\"meta\": %s, \"workload\": \"%s\", \"trace\": %d}\n",
              bench::meta_json(args.seed).c_str(), args.workload.c_str(),
              args.trace ? 1 : 0);
  std::fflush(stdout);
  const WorkloadSpec& spec = *std::find_if(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const WorkloadSpec& w) { return args.workload == w.name; });

  // Set-up is repeated and its median reported, so work moved into set-up
  // shows as a regression of its own. Peak memory is then counted from the
  // end of set-up: what the measured operations hold and allocate.
  std::unique_ptr<Workload> workload = make_workload(args.workload, args.work_dir);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetups; ++r) {
    const common::Timer timer;
    workload->setup(args.seed);
    setup_s.push_back(timer.seconds());
  }
  const double setup_rss_mb = bench::peak_rss_mb();
  bench::reset_peak_rss();

  Report report;
  SpanRecorder spans;
  if (!args.trace) {
    const Measurement m = workload->measure(args.seconds, report, spans);
    report.add("setup_s", bench::median(setup_s), "s");
    report.add("latency_ms", bench::median(m.latency_ms), "ms");
    report.add("throughput_per_s", m.throughput, "1/s");
    report.add("peak_rss_mb", bench::peak_rss_mb(), "MB");
  } else {
    // The untraced half and the traced half run the same operations; their
    // medians give the tracing overhead.
    const Measurement plain = workload->measure(args.seconds / 2, report, spans);
    spans.enable();
    spans.set_phase(args.workload + "/measure");
    Measurement traced;
    {
      Scope root(spans, args.workload);
      traced = workload->measure(args.seconds / 2, report, spans);
    }
    report.add("bench.trace_overhead_frac",
               bench::median(traced.latency_ms) / bench::median(plain.latency_ms) - 1.0,
               "frac");
    spans.set_phase(args.workload + "/probes");
    {
      Scope root(spans, "probes");
      probe_kernels<double>("f64", spans, report);
      probe_kernels<float>("f32", spans, report);
      probe_runtime(spec.factor_n, args.seed, args.work_dir, spans, report);
      probe_model(spec.model, args.seed, args.work_dir, spans, report);
    }
    const std::string path = args.work_dir + "/trace_" + args.workload + ".json";
    spans.write_chrome_json(path);
    std::fprintf(stderr, "wrote %s (%zu spans)\n", path.c_str(),
                 spans.spans().size());
  }

  std::fprintf(stderr,
               "%s: setup_s %.3f (n=%d) | peak_rss_mb %.1f (set-up %.1f) | "
               "failed %lld/%lld\n",
               args.workload.c_str(), bench::median(setup_s), kSetups,
               bench::peak_rss_mb(), setup_rss_mb,
               static_cast<long long>(report.failed),
               static_cast<long long>(report.attempted));
  workload->diagnose();
  std::printf("%s\n", report.json().c_str());
  return report.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // Pin glibc's mmap threshold at its 128 KiB default. Left dynamic, it
  // rises whenever a large block is freed, and which blocks stay cached on
  // the per-thread heaps then depends on thread timing: identical runs
  // differed by up to 15% in peak RSS. Pinned, large blocks are always
  // mapped and unmapped, and peak RSS tracks live data to within 1%.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline: %s\n", e.what());
    return 1;
  }
}
