// exaclim — command-line driver for the emulator.
//
//   exaclim_cli generate --out data.bin [--band-limit L] [--years Y]
//                        [--steps-per-year TAU] [--ensembles R] [--seed S]
//   exaclim_cli train    --data data.bin --model model.bin [--band-limit L]
//                        [--ar-order P] [--harmonics K] [--tile-size T]
//                        [--variant DP|DP/SP|DP/SP/HP|DP/HP]
//                        [--factor-storage fp64|fp32|fp16]
//                        [--checkpoint path] [--checkpoint-every N]
//                        [--checkpoint-sync full|data|none]
//                        [--resume path] [--fault-tolerance 0|1]
//                        [--validate 0|1] [--quarantine 0|1]
//                        [--valid-range MIN,MAX] [--stall-timeout SECONDS]
//                        [--stall-grace SECONDS] [--verify off|static|dynamic]
//   exaclim_cli emulate  --model model.bin --out emu.bin --steps N
//                        [--ensembles R] [--seed S]
//   exaclim_cli info     --file <dataset-or-model>
//   exaclim_cli verify   --data data.bin --emu emu.bin [--band-limit L]
//   exaclim_cli serve    --model model.bin [--serve-clients N]
//                        [--serve-requests R] [--serve-queue-depth D]
//                        [--serve-batch K] [--serve-deadline-ms MS]
//                        [--tile-size T] [--seed S]
//                        [--stall-timeout SECONDS] [--verify off|static|dynamic]
//
// Flags are strict: a flag that neither the subcommand nor the global set
// reads is an error (exit 1, naming the flag and the subcommand) before any
// work starts, so a typo cannot run as if the flag were absent.
//
// Global flags (any subcommand): --threads N sizes the process-wide worker
// team (default: hardware concurrency); --pin 0|1 toggles NUMA/SMT-aware
// core pinning of the team's workers (default: off, or the EXACLIM_PIN env
// var); --faults <spec> arms the deterministic fault injector (see
// common/fault.hpp for the spec grammar; default: the EXACLIM_FAULTS env
// var); --mem-budget SIZE caps tracked allocations (tiles, scratch arenas,
// checkpoint images) at SIZE bytes, accepting K/M/G suffixes (default:
// unlimited, or the EXACLIM_MEM_BUDGET env var). Over-budget allocations
// first trigger graceful degradation (retired deque rings dropped, scratch
// arenas trimmed, eligible off-diagonal tiles stored at fp16) and only then
// fail with a structured ResourceError naming the allocation site.
//
// Checkpointing (train): --checkpoint writes a crash-consistent snapshot of
// the Cholesky every --checkpoint-every newly-executed kernel tasks (0 =
// once, at completion); --resume restores a snapshot and skips its finished
// work. Env equivalents: EXACLIM_CHECKPOINT, EXACLIM_CHECKPOINT_EVERY,
// EXACLIM_RESUME.
//
// The workflow a downstream modelling centre would run: generate (or bring)
// an ensemble, train once, archive only the model file, regenerate members
// on demand, and verify statistical consistency.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "climate/synthetic_esm.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/memory.hpp"
#include "common/thread_pool.hpp"
#include "core/consistency.hpp"
#include "core/emulator.hpp"
#include "core/serialize.hpp"
#include "linalg/precision_policy.hpp"
#include "serve/service.hpp"

using namespace exaclim;
using exaclim::InvalidArgument;

namespace {

/// Minimal --key value argument parser. A trailing flag without a value is
/// an error, not a silent drop.
std::map<std::string, std::string> parse_args(int argc, char** argv,
                                              int first) {
  std::map<std::string, std::string> args;
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      throw InvalidArgument(std::string("expected --flag, got ") + argv[i]);
    }
    if (i + 1 >= argc) {
      throw InvalidArgument(std::string("flag ") + argv[i] +
                            " expects a value");
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

/// Required flag: present (even if explicitly empty) or throw.
std::string get(const std::map<std::string, std::string>& args,
                const std::string& key) {
  auto it = args.find(key);
  if (it == args.end()) throw InvalidArgument("missing required flag --" + key);
  return it->second;
}

/// Optional flag: the fallback applies only when the flag is absent, so an
/// explicitly empty value is preserved rather than misread as missing.
std::string get_or(const std::map<std::string, std::string>& args,
                   const std::string& key, const std::string& fallback) {
  auto it = args.find(key);
  return it != args.end() ? it->second : fallback;
}

/// Optional flag with an environment-variable fallback: the flag wins, then
/// the env var, then the default.
std::string get_or_env(const std::map<std::string, std::string>& args,
                       const std::string& key, const char* env,
                       const std::string& fallback) {
  auto it = args.find(key);
  if (it != args.end()) return it->second;
  const char* v = std::getenv(env);
  return v != nullptr ? std::string(v) : fallback;
}

double get_double(const std::map<std::string, std::string>& args,
                  const std::string& key, double fallback) {
  auto it = args.find(key);
  if (it == args.end()) return fallback;
  try {
    std::size_t pos = 0;
    const double v = std::stod(it->second, &pos);
    if (pos != it->second.size()) throw InvalidArgument("");
    return v;
  } catch (const std::exception&) {
    throw InvalidArgument("flag --" + key + " expects a number, got '" +
                          it->second + "'");
  }
}

/// Parses a byte size with an optional K/M/G suffix (powers of 1024, case
/// insensitive). "0" means unlimited. Rejects negative values, unknown
/// suffixes and trailing junk.
std::size_t parse_mem_budget(const std::string& text) {
  std::size_t pos = 0;
  long long v = 0;
  try {
    v = std::stoll(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos == 0 || v < 0) {
    throw InvalidArgument(
        "--mem-budget expects a non-negative size with an optional K/M/G "
        "suffix, got '" + text + "'");
  }
  std::size_t scale = 1;
  if (pos < text.size()) {
    if (pos + 1 != text.size()) {
      throw InvalidArgument("--mem-budget has trailing characters after the "
                            "size suffix in '" + text + "'");
    }
    switch (text[pos]) {
      case 'k': case 'K': scale = 1ull << 10; break;
      case 'm': case 'M': scale = 1ull << 20; break;
      case 'g': case 'G': scale = 1ull << 30; break;
      default:
        throw InvalidArgument(
            "--mem-budget suffix must be K, M or G, got '" +
            std::string(1, text[pos]) + "' in '" + text + "'");
    }
  }
  return static_cast<std::size_t>(v) * scale;
}

index_t get_int(const std::map<std::string, std::string>& args,
                const std::string& key, index_t fallback) {
  auto it = args.find(key);
  if (it == args.end()) return fallback;
  try {
    std::size_t pos = 0;
    const long long v = std::stoll(it->second, &pos);
    if (pos != it->second.size()) {
      throw InvalidArgument("flag --" + key + " expects an integer, got '" +
                            it->second + "'");
    }
    return static_cast<index_t>(v);
  } catch (const InvalidArgument&) {
    throw;
  } catch (const std::exception&) {  // std::invalid_argument / out_of_range
    throw InvalidArgument("flag --" + key + " expects an integer, got '" +
                          it->second + "'");
  }
}

int cmd_generate(const std::map<std::string, std::string>& args) {
  climate::SyntheticEsmConfig cfg;
  cfg.band_limit = get_int(args, "band-limit", 16);
  cfg.grid = {cfg.band_limit + 1, 2 * cfg.band_limit};
  cfg.num_years = get_int(args, "years", 4);
  cfg.steps_per_year = get_int(args, "steps-per-year", 64);
  cfg.num_ensembles = get_int(args, "ensembles", 2);
  cfg.seed = static_cast<std::uint64_t>(get_int(args, "seed", 20240811));
  const auto esm = climate::generate_synthetic_esm(cfg);
  const std::string out = get(args, "out");
  esm.data.save(out);
  std::printf("wrote %s: %lldx%lld grid, %lld steps, %lld members (%.1f MB)\n",
              out.c_str(), static_cast<long long>(cfg.grid.nlat),
              static_cast<long long>(cfg.grid.nlon),
              static_cast<long long>(esm.data.num_steps()),
              static_cast<long long>(cfg.num_ensembles),
              esm.data.total_points() * 8.0 / 1e6);
  return 0;
}

int cmd_train(const std::map<std::string, std::string>& args) {
  const auto data = climate::ClimateDataset::load(get(args, "data"));
  core::EmulatorConfig cfg;
  cfg.band_limit = get_int(args, "band-limit", data.grid().nlat - 1);
  cfg.ar_order = get_int(args, "ar-order", 3);
  cfg.harmonics = get_int(args, "harmonics", 5);
  cfg.steps_per_year = data.steps_per_year();
  cfg.cholesky_variant =
      linalg::parse_variant(get_or(args, "variant", "DP/HP"));
  cfg.tile_size = get_int(args, "tile-size", 128);

  // Validate the output flags before the expensive training step.
  const std::string model_path = get(args, "model");
  const std::string storage_name = get_or(args, "factor-storage", "fp64");
  core::FactorStorage storage = core::FactorStorage::FP64;
  if (storage_name == "fp32") {
    storage = core::FactorStorage::FP32;
  } else if (storage_name == "fp16") {
    storage = core::FactorStorage::FP16Scaled;
  } else if (storage_name != "fp64") {
    throw InvalidArgument("flag --factor-storage expects fp64|fp32|fp16, got '" +
                          storage_name + "'");
  }

  // Fault tolerance + checkpoint/restart, validated before the expensive
  // training step. Flags win over their EXACLIM_* env equivalents.
  cfg.checkpoint_path =
      get_or_env(args, "checkpoint", "EXACLIM_CHECKPOINT", "");
  cfg.resume_path = get_or_env(args, "resume", "EXACLIM_RESUME", "");
  {
    // Omitting the flag keeps the once-at-completion default (0); passing it
    // explicitly demands a periodic interval, so "--checkpoint-every 0" is a
    // contradiction caught here rather than silently meaning "once".
    const std::string every =
        get_or_env(args, "checkpoint-every", "EXACLIM_CHECKPOINT_EVERY", "");
    if (!every.empty()) {
      long long v = 0;
      std::size_t pos = 0;
      try {
        v = std::stoll(every, &pos);
      } catch (const std::exception&) {
        pos = 0;
      }
      if (pos != every.size() || v <= 0) {
        throw InvalidArgument(
            "flag --checkpoint-every expects a positive integer, got '" +
            every + "' (omit the flag for a single checkpoint at completion)");
      }
      cfg.checkpoint_every = static_cast<index_t>(v);
    }
  }
  if (cfg.checkpoint_every > 0 && cfg.checkpoint_path.empty()) {
    throw InvalidArgument(
        "flag --checkpoint-every requires --checkpoint <path>");
  }
  cfg.checkpoint_sync = common::parse_sync_policy(
      get_or_env(args, "checkpoint-sync", "EXACLIM_CHECKPOINT_SYNC", "full"));
  const index_t ft = get_int(args, "fault-tolerance",
                             common::FaultInjector::instance().armed() ? 1 : 0);
  if (ft != 0 && ft != 1) {
    throw InvalidArgument("flag --fault-tolerance expects 0 or 1, got '" +
                          args.at("fault-tolerance") + "'");
  }
  cfg.fault_tolerance = ft != 0;

  // Input screening: on by default; --quarantine 1 masks + imputes flagged
  // cells instead of failing; --valid-range MIN,MAX arms the physical-range
  // screen (off by default — synthetic fields are already in range).
  const index_t validate = get_int(args, "validate", 1);
  if (validate != 0 && validate != 1) {
    throw InvalidArgument("flag --validate expects 0 or 1, got '" +
                          args.at("validate") + "'");
  }
  cfg.validate_input = validate != 0;
  const index_t quarantine = get_int(args, "quarantine", 0);
  if (quarantine != 0 && quarantine != 1) {
    throw InvalidArgument("flag --quarantine expects 0 or 1, got '" +
                          args.at("quarantine") + "'");
  }
  cfg.quarantine = quarantine != 0;
  if (args.count("valid-range") != 0) {
    const std::string range = args.at("valid-range");
    const auto comma = range.find(',');
    bool ok = comma != std::string::npos;
    if (ok) {
      try {
        std::size_t pos = 0;
        cfg.valid_min = std::stod(range.substr(0, comma), &pos);
        ok = pos == comma;
        const std::string hi = range.substr(comma + 1);
        cfg.valid_max = std::stod(hi, &pos);
        ok = ok && pos == hi.size() && cfg.valid_min < cfg.valid_max;
      } catch (const std::exception&) {
        ok = false;
      }
    }
    if (!ok) {
      throw InvalidArgument(
          "flag --valid-range expects 'MIN,MAX' with MIN < MAX, got '" +
          range + "'");
    }
  }

  // Stall watchdog: seconds without a completed task before the scheduler
  // dumps worker state, then (after the grace period) fails with StallError.
  cfg.stall_timeout_seconds = get_double(args, "stall-timeout", 0.0);
  if (cfg.stall_timeout_seconds < 0.0) {
    throw InvalidArgument("flag --stall-timeout expects seconds >= 0, got '" +
                          args.at("stall-timeout") + "'");
  }
  cfg.stall_grace_seconds = get_double(args, "stall-grace", 0.0);

  // DAG verification gate (distinct from the `verify` subcommand, which
  // checks statistical consistency of an emulation). Unset resolves through
  // EXACLIM_VERIFY and falls back to static.
  if (args.count("verify") != 0) {
    cfg.verify_mode = runtime::parse_verify_mode(args.at("verify"));
  }

  core::ClimateEmulator emulator(cfg);
  const auto forcing = climate::historical_forcing(data.num_years());
  const auto report = emulator.train(data, forcing);
  std::printf("trained in %.2fs (L=%lld, P=%lld, K=%lld, %s Cholesky%s)\n",
              report.total_seconds, static_cast<long long>(cfg.band_limit),
              static_cast<long long>(cfg.ar_order),
              static_cast<long long>(cfg.harmonics),
              linalg::variant_name(cfg.cholesky_variant).c_str(),
              report.covariance_deficient ? ", covariance jittered" : "");
  if (report.covariance_rung > 0) {
    std::printf("covariance: factored at jitter-ladder rung %lld, diagonal "
                "+ %.3g\n",
                static_cast<long long>(report.covariance_rung),
                report.covariance_jitter);
  }
  if (report.validation_flagged > 0) {
    std::printf("input validation: %lld cell(s) flagged, %lld quarantined\n",
                static_cast<long long>(report.validation_flagged),
                static_cast<long long>(report.validation_quarantined));
  }
  if (report.resumed_from_checkpoint || report.checkpoints_written > 0 ||
      report.precision_escalations > 0 || report.jitter_escalations > 0) {
    std::printf("fault tolerance: %s%lld checkpoint(s) written, "
                "%lld precision + %lld jitter escalation(s)\n",
                report.resumed_from_checkpoint ? "resumed, " : "",
                static_cast<long long>(report.checkpoints_written),
                static_cast<long long>(report.precision_escalations),
                static_cast<long long>(report.jitter_escalations));
  }
  if (report.tiles_degraded_for_memory > 0) {
    std::printf("memory budget: %lld off-diagonal tile(s) narrowed to FP16\n",
                static_cast<long long>(report.tiles_degraded_for_memory));
  }

  core::save_emulator(emulator, model_path, storage);
  std::printf("wrote %s (factor storage %s)\n", model_path.c_str(),
              storage_name.c_str());
  return 0;
}

int cmd_emulate(const std::map<std::string, std::string>& args) {
  const auto emulator = core::load_emulator(get(args, "model"));
  const index_t steps = get_int(args, "steps", 0);
  EXACLIM_CHECK(steps > 0, "--steps must be positive");
  const index_t ensembles = get_int(args, "ensembles", 1);
  const auto seed = static_cast<std::uint64_t>(get_int(args, "seed", 1));
  const index_t years =
      (steps + emulator.config().steps_per_year - 1) /
      emulator.config().steps_per_year;
  const auto forcing = climate::historical_forcing(years);
  const auto emu = emulator.emulate(steps, ensembles, forcing, seed);
  const std::string out = get(args, "out");
  emu.save(out);
  std::printf("wrote %s: %lld members x %lld steps\n", out.c_str(),
              static_cast<long long>(ensembles),
              static_cast<long long>(steps));
  return 0;
}

int cmd_info(const std::map<std::string, std::string>& args) {
  const std::string path = get(args, "file");
  // Dispatch on the magic, so that a dataset the loader rejects reports the
  // loader's reason rather than the model parser's.
  if (climate::ClimateDataset::has_magic(path)) {
    const auto data = climate::ClimateDataset::load(path);
    std::printf("dataset: %lld x %lld grid | %lld steps (%lld/yr) | %lld "
                "members | %.0f points\n",
                static_cast<long long>(data.grid().nlat),
                static_cast<long long>(data.grid().nlon),
                static_cast<long long>(data.num_steps()),
                static_cast<long long>(data.steps_per_year()),
                static_cast<long long>(data.num_ensembles()),
                data.total_points());
    return 0;
  }
  // The header is all this prints: open the model, decode nothing else.
  const core::FrozenModel model(path);
  std::printf("model: L=%lld, P=%lld, K=%lld, tau=%lld, grid %lld x %lld\n",
              static_cast<long long>(model.band_limit()),
              static_cast<long long>(model.ar_order()),
              static_cast<long long>(model.harmonics()),
              static_cast<long long>(model.steps_per_year()),
              static_cast<long long>(model.grid().nlat),
              static_cast<long long>(model.grid().nlon));
  return 0;
}

/// Serve-flag parser: --serve-* flag wins, then the EXACLIM_SERVE_* env
/// var, then the default; the value must be an integer in [lo, hi] — the
/// same strictness as the other numeric flags, applied to env values too so
/// a typo'd deployment environment fails loudly.
index_t serve_int(const std::map<std::string, std::string>& args,
                  const std::string& key, const char* env, index_t fallback,
                  index_t lo, index_t hi) {
  const std::string text = get_or_env(args, key, env, "");
  if (text.empty()) return fallback;
  long long v = 0;
  std::size_t pos = 0;
  try {
    v = std::stoll(text, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != text.size() || v < lo || v > hi) {
    throw InvalidArgument("flag --" + key + " (or " + env +
                          ") expects an integer in [" + std::to_string(lo) +
                          ", " + std::to_string(hi) + "], got '" + text + "'");
  }
  return static_cast<index_t>(v);
}

int cmd_serve(const std::map<std::string, std::string>& args) {
  // Validate every serve flag before mapping the model, so a bad deployment
  // config fails in microseconds.
  const std::string model_path = get(args, "model");
  const index_t queue_depth = serve_int(args, "serve-queue-depth",
                                        "EXACLIM_SERVE_QUEUE_DEPTH", 64, 1,
                                        1 << 20);
  const index_t batch =
      serve_int(args, "serve-batch", "EXACLIM_SERVE_BATCH", 16, 1, 64);
  const index_t deadline_ms = serve_int(args, "serve-deadline-ms",
                                        "EXACLIM_SERVE_DEADLINE_MS", 0, 1,
                                        1 << 30);
  const index_t clients =
      serve_int(args, "serve-clients", "EXACLIM_SERVE_CLIENTS", 4, 1, 1024);
  const index_t requests = serve_int(args, "serve-requests",
                                     "EXACLIM_SERVE_REQUESTS", 64, 1,
                                     1 << 20);
  const auto seed = static_cast<std::uint64_t>(get_int(args, "seed", 1));

  const core::FrozenModel model(model_path);
  serve::ServiceOptions options;
  options.queue_depth = queue_depth;
  options.max_batch = batch;
  options.deadline_ms = static_cast<double>(deadline_ms);
  options.sampler.seed = seed;
  options.sampler.tile = get_int(args, "tile-size", 256);
  options.sampler.stall_timeout_seconds = get_double(args, "stall-timeout", 0.0);
  if (args.count("verify") != 0) {
    options.sampler.verify = runtime::parse_verify_mode(args.at("verify"));
  }
  serve::SamplingService service(model, options);

  // An armed `burst=N` fault plan turns each client into a request storm:
  // N x its request count submitted back-to-back, driving the shedding path.
  const index_t burst =
      std::max<index_t>(1, common::FaultInjector::instance().burst_factor());
  const index_t per_client = requests * burst;

  std::vector<std::thread> workers;
  std::atomic<index_t> ok{0}, shed{0}, missed{0}, failed{0};
  const auto start = std::chrono::steady_clock::now();
  for (index_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (index_t i = 0; i < per_client; ++i) {
        serve::SampleRequest req;
        req.request_id =
            static_cast<std::uint64_t>(c) * 1000000u +
            static_cast<std::uint64_t>(i);
        try {
          auto future = service.submit(req);
          future.get();
          ok.fetch_add(1, std::memory_order_relaxed);
        } catch (const serve::OverloadError&) {
          shed.fetch_add(1, std::memory_order_relaxed);
        } catch (const serve::DeadlineError&) {
          missed.fetch_add(1, std::memory_order_relaxed);
        } catch (const Error&) {
          failed.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  service.drain();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto counters = service.counters();
  std::printf("served %lld requests from %lld client(s) in %.2fs "
              "(%.1f samples/s)\n",
              static_cast<long long>(counters.submitted),
              static_cast<long long>(clients), seconds,
              seconds > 0.0 ? static_cast<double>(counters.completed) / seconds
                            : 0.0);
  std::printf("completed %lld | shed %lld | deadline-missed %lld | failed "
              "%lld | batches %lld (shrunk %lld, degraded %lld) | retries "
              "%lld | health %s\n",
              static_cast<long long>(counters.completed),
              static_cast<long long>(counters.shed),
              static_cast<long long>(counters.deadline_missed),
              static_cast<long long>(counters.failed),
              static_cast<long long>(counters.batches),
              static_cast<long long>(counters.shrunk_batches),
              static_cast<long long>(counters.degraded_batches),
              static_cast<long long>(counters.transient_retries),
              serve::health_name(service.health()));
  const index_t accounted = counters.completed + counters.shed +
                            counters.deadline_missed + counters.failed;
  if (accounted != counters.submitted) {
    std::fprintf(stderr,
                 "error: accounting mismatch — %lld submitted but %lld "
                 "accounted\n",
                 static_cast<long long>(counters.submitted),
                 static_cast<long long>(accounted));
    return 2;
  }
  return counters.failed == 0 ? 0 : 1;
}

int cmd_verify(const std::map<std::string, std::string>& args) {
  const auto data = climate::ClimateDataset::load(get(args, "data"));
  const auto emu = climate::ClimateDataset::load(get(args, "emu"));
  const index_t band_limit = get_int(args, "band-limit", data.grid().nlat - 1);
  const auto report = core::evaluate_consistency(data, emu, band_limit);
  std::printf("mean-field rel RMSE %.4f | SD-field rel RMSE %.4f | ACF MAD "
              "%.4f | spectrum log10 MAD %.4f | pooled KS %.4f\n",
              report.mean_field_rel_rmse, report.sd_field_rel_rmse,
              report.acf_mad, report.spectrum_log10_mad, report.pooled.ks);
  std::printf("verdict: %s\n",
              report.consistent() ? "CONSISTENT" : "NOT consistent");
  return report.consistent() ? 0 : 2;
}

/// Applies the global --threads / --pin flags before any parallel work runs
/// (the worker team is created lazily on first use and cannot be resized
/// afterwards). Values are validated with the same strictness as the other
/// integer flags: non-numeric or out-of-range input names the flag.
void configure_runtime(const std::map<std::string, std::string>& args) {
  unsigned threads = 0;
  int pin = -1;
  if (args.count("threads") != 0) {
    const index_t t = get_int(args, "threads", 0);
    if (t <= 0 || t > 1024) {
      throw InvalidArgument("flag --threads expects an integer in [1, 1024], got '" +
                            args.at("threads") + "'");
    }
    threads = static_cast<unsigned>(t);
  }
  if (args.count("pin") != 0) {
    const index_t p = get_int(args, "pin", 0);
    if (p != 0 && p != 1) {
      throw InvalidArgument("flag --pin expects 0 or 1, got '" +
                            args.at("pin") + "'");
    }
    pin = static_cast<int>(p);
  }
  if (threads > 0 || pin >= 0) {
    common::WorkerTeam::configure(threads, pin);
  }
  // Process-wide memory budget for tracked allocations: the flag wins over
  // EXACLIM_MEM_BUDGET; absent both, the budget stays unlimited.
  const std::string budget =
      get_or_env(args, "mem-budget", "EXACLIM_MEM_BUDGET", "");
  if (!budget.empty()) {
    common::MemoryBudget::instance().set_budget(parse_mem_budget(budget));
  }
  // Deterministic fault injection: --faults <spec> wins over EXACLIM_FAULTS.
  // FaultPlan::parse throws InvalidArgument naming the offending key.
  if (args.count("faults") != 0) {
    common::FaultInjector::instance().arm(
        common::FaultPlan::parse(args.at("faults")));
  } else {
    common::FaultInjector::instance().arm_from_env();
  }
}

void usage() {
  std::printf(
      "usage: exaclim_cli <generate|train|emulate|info|verify|serve> "
      "[--flags]\n"
      "\n"
      "subcommands:\n"
      "  generate --out data.bin [--band-limit L] [--years Y]\n"
      "           [--steps-per-year TAU] [--ensembles R] [--seed S]\n"
      "  train    --data data.bin --model model.bin [--band-limit L]\n"
      "           [--ar-order P] [--harmonics K] [--tile-size T]\n"
      "           [--variant DP|DP/SP|DP/SP/HP|DP/HP]\n"
      "           [--factor-storage fp64|fp32|fp16]\n"
      "           [--checkpoint PATH] [--checkpoint-every N]\n"
      "           [--checkpoint-sync full|data|none] [--resume PATH]\n"
      "           [--fault-tolerance 0|1] [--validate 0|1]\n"
      "           [--quarantine 0|1] [--valid-range MIN,MAX]\n"
      "           [--stall-timeout SECONDS] [--stall-grace SECONDS]\n"
      "           [--verify off|static|dynamic]\n"
      "  emulate  --model model.bin --out emu.bin --steps N\n"
      "           [--ensembles R] [--seed S]\n"
      "  info     --file <dataset-or-model>\n"
      "  verify   --data data.bin --emu emu.bin [--band-limit L]\n"
      "  serve    --model model.bin [--serve-clients N] [--serve-requests R]\n"
      "           [--serve-queue-depth D] [--serve-batch K]\n"
      "           [--serve-deadline-ms MS] [--tile-size T] [--seed S]\n"
      "           [--stall-timeout SECONDS] [--verify off|static|dynamic]\n"
      "\n"
      "global flags (any subcommand):\n"
      "  --threads N          worker-team size (default: hw concurrency)\n"
      "  --pin 0|1            NUMA/SMT-aware core pinning (EXACLIM_PIN)\n"
      "  --faults SPEC        arm the deterministic fault injector\n"
      "                       (EXACLIM_FAULTS; see common/fault.hpp: seed=,\n"
      "                       numerical=, transient=, repeats=, bitflip=,\n"
      "                       hang=, hang-ms=, kind=, at=r,c, io=, io-mode=,\n"
      "                       burst=, slow-task=, slow-ms=)\n"
      "  --mem-budget SIZE    cap tracked allocations, K/M/G suffixes\n"
      "                       (EXACLIM_MEM_BUDGET); degrade, then\n"
      "                       ResourceError\n"
      "\n"
      "any other flag is an error. train and serve's --verify (the DAG\n"
      "race/ordering verifier) falls back to EXACLIM_VERIFY, default static;\n"
      "serve flags fall back to EXACLIM_SERVE_QUEUE_DEPTH,\n"
      "EXACLIM_SERVE_BATCH, EXACLIM_SERVE_DEADLINE_MS, EXACLIM_SERVE_CLIENTS\n"
      "and EXACLIM_SERVE_REQUESTS; checkpoint flags fall back to\n"
      "EXACLIM_CHECKPOINT, EXACLIM_CHECKPOINT_EVERY, EXACLIM_CHECKPOINT_SYNC\n"
      "and EXACLIM_RESUME.\n"
      "see the header comment of examples/exaclim_cli.cpp for details\n");
}

/// A subcommand and every flag it reads.
struct Subcommand {
  const char* name;
  int (*run)(const std::map<std::string, std::string>&);
  std::vector<std::string> flags;
};

/// Rejects a flag that neither `sub` nor configure_runtime reads.
void check_flags(const Subcommand& sub,
                 const std::map<std::string, std::string>& args) {
  static const std::vector<std::string> global = {"threads", "pin", "faults",
                                                  "mem-budget"};
  for (const auto& kv : args) {
    const std::string& key = kv.first;
    if (std::find(sub.flags.begin(), sub.flags.end(), key) == sub.flags.end() &&
        std::find(global.begin(), global.end(), key) == global.end()) {
      throw InvalidArgument("unknown flag --" + key + " for '" + sub.name +
                            "'");
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Subcommand subcommands[] = {
      {"generate", cmd_generate,
       {"out", "band-limit", "years", "steps-per-year", "ensembles", "seed"}},
      {"train", cmd_train,
       {"data", "model", "band-limit", "ar-order", "harmonics", "tile-size",
        "variant", "factor-storage", "checkpoint", "checkpoint-every",
        "checkpoint-sync", "resume", "fault-tolerance", "validate",
        "quarantine", "valid-range", "stall-timeout", "stall-grace",
        "verify"}},
      {"emulate", cmd_emulate, {"model", "out", "steps", "ensembles", "seed"}},
      {"info", cmd_info, {"file"}},
      {"verify", cmd_verify, {"data", "emu", "band-limit"}},
      {"serve", cmd_serve,
       {"model", "serve-clients", "serve-requests", "serve-queue-depth",
        "serve-batch", "serve-deadline-ms", "tile-size", "seed",
        "stall-timeout", "verify"}},
  };
  const Subcommand* sub = nullptr;
  for (const Subcommand& s : subcommands) {
    if (argc >= 2 && std::strcmp(argv[1], s.name) == 0) sub = &s;
  }
  if (sub == nullptr) {
    usage();
    return 1;
  }
  try {
    const auto args = parse_args(argc, argv, 2);
    check_flags(*sub, args);
    configure_runtime(args);
    return sub->run(args);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
