// Measured kernel rates backing the performance model: per-precision tile
// GEMM/SYRK/TRSM/POTRF, the scaled-f16 conversions, and full tile Cholesky
// variants (on the runtime at one thread and across thread counts).
//
// Default invocation runs the blocked-vs-reference quick bench and writes
// BENCH_kernels.json (the perf trajectory future PRs regress against); pass
// --gbench to additionally run the full Google-benchmark suite below.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/topology.hpp"
#include "linalg/kernels.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::linalg;

template <typename T>
std::vector<T> random_tile(index_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n * n));
  for (auto& x : v) x = static_cast<T>(rng.normal());
  return v;
}

Matrix spd(index_t n) {
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(static_cast<double>(i - j)) / 64.0);
    }
    a(i, i) += 1e-3;
  }
  return a;
}

void BM_GemmF64(benchmark::State& state) {
  const index_t nb = state.range(0);
  const auto a = random_tile<double>(nb, 1);
  const auto b = random_tile<double>(nb, 2);
  auto c = random_tile<double>(nb, 3);
  for (auto _ : state) {
    gemm_nt_minus_f64(a.data(), b.data(), c.data(), nb, nb, nb);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * nb * nb * nb * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmF64)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmF32(benchmark::State& state) {
  const index_t nb = state.range(0);
  const auto a = random_tile<float>(nb, 1);
  const auto b = random_tile<float>(nb, 2);
  auto c = random_tile<float>(nb, 3);
  for (auto _ : state) {
    gemm_nt_minus_f32(a.data(), b.data(), c.data(), nb, nb, nb);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * nb * nb * nb * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmF32)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTensorCoreStyle(benchmark::State& state) {
  // fp16-rounded operands, fp32 accumulate, fp16 store: the full HP GEMM
  // task body.
  const index_t nb = state.range(0);
  auto a = random_tile<float>(nb, 1);
  auto b = random_tile<float>(nb, 2);
  round_through_f16(a.data(), nb * nb);
  round_through_f16(b.data(), nb * nb);
  std::vector<common::half> c_storage(static_cast<std::size_t>(nb * nb));
  std::vector<float> c(static_cast<std::size_t>(nb * nb));
  for (auto _ : state) {
    convert_f16_to_f32(c_storage.data(), c.data(), nb * nb);
    gemm_nt_minus_f32(a.data(), b.data(), c.data(), nb, nb, nb);
    convert_f32_to_f16(c.data(), c_storage.data(), nb * nb);
    benchmark::DoNotOptimize(c_storage.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      2.0 * nb * nb * nb * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmTensorCoreStyle)->Arg(128)->Arg(256);

void BM_PotrfF64(benchmark::State& state) {
  const index_t nb = state.range(0);
  const Matrix a = spd(nb);
  std::vector<double> tile(static_cast<std::size_t>(nb * nb));
  for (auto _ : state) {
    state.PauseTiming();
    for (index_t i = 0; i < nb; ++i) {
      for (index_t j = 0; j < nb; ++j) {
        tile[static_cast<std::size_t>(i * nb + j)] = a(i, j);
      }
    }
    state.ResumeTiming();
    potrf_lower_f64(tile.data(), nb);
    benchmark::DoNotOptimize(tile.data());
  }
}
BENCHMARK(BM_PotrfF64)->Arg(64)->Arg(128)->Arg(256);

void BM_TrsmF64(benchmark::State& state) {
  const index_t nb = state.range(0);
  Matrix l = spd(nb);
  cholesky_dense(l);
  std::vector<double> lt(static_cast<std::size_t>(nb * nb));
  for (index_t i = 0; i < nb; ++i) {
    for (index_t j = 0; j < nb; ++j) {
      lt[static_cast<std::size_t>(i * nb + j)] = l(i, j);
    }
  }
  auto b = random_tile<double>(nb, 5);
  for (auto _ : state) {
    trsm_rlt_f64(lt.data(), b.data(), nb, nb);
    benchmark::DoNotOptimize(b.data());
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(nb) * nb * nb * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TrsmF64)->Arg(128)->Arg(256);

void BM_ConvertF64ToF16(benchmark::State& state) {
  const index_t count = state.range(0);
  const auto src = random_tile<double>(static_cast<index_t>(std::sqrt(count)), 7);
  std::vector<double> data(static_cast<std::size_t>(count));
  common::Rng rng(9);
  for (auto& v : data) v = rng.normal();
  std::vector<common::half> dst(static_cast<std::size_t>(count));
  for (auto _ : state) {
    convert_f64_to_f16(data.data(), dst.data(), count);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          count * 8);
}
BENCHMARK(BM_ConvertF64ToF16)->Arg(1 << 16)->Arg(1 << 20);

void BM_CholeskyVariant(benchmark::State& state) {
  const index_t n = 1024;
  const index_t nb = 128;
  const index_t nt = (n + nb - 1) / nb;
  const auto variant = static_cast<PrecisionVariant>(state.range(0));
  const Matrix a = spd(n);
  for (auto _ : state) {
    state.PauseTiming();
    auto tiled =
        TiledSymmetricMatrix::from_dense(a, nb, make_band_policy(nt, variant));
    state.ResumeTiming();
    runtime::RtCholeskyOptions opt;
    opt.threads = 1;
    runtime::cholesky_tiled_parallel(tiled, opt);
    benchmark::DoNotOptimize(&tiled);
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(n) * n * n / 3.0 * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
  state.SetLabel(variant_name(variant));
}
BENCHMARK(BM_CholeskyVariant)
    ->Arg(static_cast<int>(PrecisionVariant::DP))
    ->Arg(static_cast<int>(PrecisionVariant::DP_SP))
    ->Arg(static_cast<int>(PrecisionVariant::DP_SP_HP))
    ->Arg(static_cast<int>(PrecisionVariant::DP_HP));

void BM_CholeskyRuntimeThreads(benchmark::State& state) {
  const index_t n = 1536;
  const index_t nb = 128;
  const index_t nt = (n + nb - 1) / nb;
  const unsigned threads = static_cast<unsigned>(state.range(0));
  const Matrix a = spd(n);
  for (auto _ : state) {
    state.PauseTiming();
    auto tiled = TiledSymmetricMatrix::from_dense(
        a, nb, make_band_policy(nt, PrecisionVariant::DP));
    state.ResumeTiming();
    runtime::RtCholeskyOptions opt;
    opt.threads = threads;
    runtime::cholesky_tiled_parallel(tiled, opt);
    benchmark::DoNotOptimize(&tiled);
  }
  state.counters["GFlop/s"] = benchmark::Counter(
      static_cast<double>(n) * n * n / 3.0 * static_cast<double>(state.iterations()) / 1e9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CholeskyRuntimeThreads)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(24)
    ->UseRealTime();

// --- BENCH_kernels.json quick bench -----------------------------------------

/// One kernel row. `gemm_gf` is the measured blocked-GEMM rate at the same
/// precision and size, so every row carries `efficiency_vs_gemm` — the
/// fraction of the engine's own ceiling this kernel reaches (the number the
/// TRSM/POTRF critical-path work is judged by). Pass 0 for the GEMM row
/// itself (reported as 1.0).
std::string json_row(const char* kernel, const char* precision, index_t n,
                     double flops, double blocked_s, double ref_s,
                     double gemm_gf) {
  const double gf = flops / blocked_s / 1e9;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"kernel\": \"%s\", \"precision\": \"%s\", \"n\": %lld, "
                "\"gflops\": %.3f, \"ref_gflops\": %.3f, \"speedup\": %.3f, "
                "\"efficiency_vs_gemm\": %.3f, "
                "\"ms\": %.4f, \"ref_ms\": %.4f}",
                kernel, precision, static_cast<long long>(n), gf,
                flops / ref_s / 1e9, ref_s / blocked_s,
                gemm_gf > 0.0 ? gf / gemm_gf : 1.0, blocked_s * 1e3,
                ref_s * 1e3);
  return buf;
}

template <typename T>
void bench_type(const char* precision, exaclim::bench::JsonBench& out) {
  using exaclim::bench::time_op;
  for (index_t nb : {64, 128, 256}) {
    const auto a = random_tile<T>(nb, 1);
    const auto b = random_tile<T>(nb, 2);
    auto c = random_tile<T>(nb, 3);
    const double gemm_flops = 2.0 * nb * nb * nb;
    double tb, tr;
    if constexpr (sizeof(T) == 8) {
      tb = time_op([&] { gemm_nt_minus_f64(a.data(), b.data(), c.data(), nb, nb, nb); });
      tr = time_op([&] { gemm_nt_minus_ref_f64(a.data(), b.data(), c.data(), nb, nb, nb); });
    } else {
      tb = time_op([&] { gemm_nt_minus_f32(a.data(), b.data(), c.data(), nb, nb, nb); });
      tr = time_op([&] { gemm_nt_minus_ref_f32(a.data(), b.data(), c.data(), nb, nb, nb); });
    }
    const double gemm_gf = gemm_flops / tb / 1e9;
    out.add(json_row("gemm_nt", precision, nb, gemm_flops, tb, tr, 0.0));

    const double syrk_flops = static_cast<double>(nb) * nb * nb;  // lower half
    if constexpr (sizeof(T) == 8) {
      tb = time_op([&] { syrk_ln_minus_f64(a.data(), c.data(), nb, nb); });
      tr = time_op([&] { syrk_ln_minus_ref_f64(a.data(), c.data(), nb, nb); });
    } else {
      tb = time_op([&] { syrk_ln_minus_f32(a.data(), c.data(), nb, nb); });
      tr = time_op([&] { syrk_ln_minus_ref_f32(a.data(), c.data(), nb, nb); });
    }
    out.add(json_row("syrk_ln", precision, nb, syrk_flops, tb, tr, gemm_gf));

    // TRSM against the Cholesky factor of an SPD tile.
    std::vector<T> l(static_cast<std::size_t>(nb * nb));
    {
      const Matrix dense = spd(nb);
      for (index_t i = 0; i < nb; ++i) {
        for (index_t j = 0; j < nb; ++j) {
          l[static_cast<std::size_t>(i * nb + j)] = static_cast<T>(dense(i, j));
        }
      }
    }
    std::vector<T> lfac = l;
    const double trsm_flops = static_cast<double>(nb) * nb * nb;
    auto rhs = random_tile<T>(nb, 5);
    if constexpr (sizeof(T) == 8) {
      potrf_lower_ref_f64(lfac.data(), nb);
      tb = time_op([&] { auto x = rhs; trsm_rlt_f64(lfac.data(), x.data(), nb, nb); });
      tr = time_op([&] { auto x = rhs; trsm_rlt_ref_f64(lfac.data(), x.data(), nb, nb); });
    } else {
      potrf_lower_ref_f32(lfac.data(), nb);
      tb = time_op([&] { auto x = rhs; trsm_rlt_f32(lfac.data(), x.data(), nb, nb); });
      tr = time_op([&] { auto x = rhs; trsm_rlt_ref_f32(lfac.data(), x.data(), nb, nb); });
    }
    out.add(json_row("trsm_rlt", precision, nb, trsm_flops, tb, tr, gemm_gf));

    const double potrf_flops = static_cast<double>(nb) * nb * nb / 3.0;
    if constexpr (sizeof(T) == 8) {
      tb = time_op([&] { auto x = l; potrf_lower_f64(x.data(), nb); });
      tr = time_op([&] { auto x = l; potrf_lower_ref_f64(x.data(), nb); });
    } else {
      tb = time_op([&] { auto x = l; potrf_lower_f32(x.data(), nb); });
      tr = time_op([&] { auto x = l; potrf_lower_ref_f32(x.data(), nb); });
    }
    out.add(json_row("potrf", precision, nb, potrf_flops, tb, tr, gemm_gf));
  }
}

void bench_f16(exaclim::bench::JsonBench& out) {
  // Full HP tile-update task bodies, new vs old. New: widen the scaled-half
  // C tile, run the packed-half kernel (f16 operands consumed in place,
  // scales folded into alpha), repack C with a fresh scale. Old
  // (round-through-f32): widen every f16 operand AND the C tile to full f32
  // copies with the element-wise converters, run the f32 blocked kernel,
  // narrow C back — the task body the engines used before the packed path.
  using exaclim::bench::time_op;
  for (index_t nb : {64, 128, 256}) {
    const auto af = random_tile<float>(nb, 1);
    const auto bf = random_tile<float>(nb, 2);
    std::vector<common::half> ah(af.size()), bh(bf.size());
    const float sa = convert_f32_to_f16_scaled(af.data(), ah.data(), nb * nb);
    const float sb = convert_f32_to_f16_scaled(bf.data(), bh.data(), nb * nb);
    std::vector<common::half> c16(static_cast<std::size_t>(nb * nb));
    float sc = convert_f32_to_f16_scaled(random_tile<float>(nb, 3).data(),
                                         c16.data(), nb * nb);
    std::vector<float> aw(af.size()), bw(bf.size()), cw(c16.size());

    const double gemm_flops = 2.0 * nb * nb * nb;
    double tb = time_op([&] {
      convert_f16_scaled_to_f32(c16.data(), sc, cw.data(), nb * nb);
      gemm_nt_minus_f16(ah.data(), sa, bh.data(), sb, cw.data(), nb, nb, nb);
      sc = convert_f32_to_f16_scaled(cw.data(), c16.data(), nb * nb);
    });
    double tr = time_op([&] {
      convert_f16_to_f32(ah.data(), aw.data(), nb * nb);
      convert_f16_to_f32(bh.data(), bw.data(), nb * nb);
      convert_f16_to_f32(c16.data(), cw.data(), nb * nb);
      gemm_nt_minus_f32(aw.data(), bw.data(), cw.data(), nb, nb, nb);
      convert_f32_to_f16(cw.data(), c16.data(), nb * nb);
    });
    const double gemm_gf = gemm_flops / tb / 1e9;
    out.add(json_row("gemm_nt", "f16", nb, gemm_flops, tb, tr, 0.0));

    const double syrk_flops = static_cast<double>(nb) * nb * nb;
    tb = time_op([&] {
      convert_f16_scaled_to_f32(c16.data(), sc, cw.data(), nb * nb);
      syrk_ln_minus_f16(ah.data(), sa, cw.data(), nb, nb);
      sc = convert_f32_to_f16_scaled(cw.data(), c16.data(), nb * nb);
    });
    tr = time_op([&] {
      convert_f16_to_f32(ah.data(), aw.data(), nb * nb);
      convert_f16_to_f32(c16.data(), cw.data(), nb * nb);
      syrk_ln_minus_f32(aw.data(), cw.data(), nb, nb);
      convert_f32_to_f16(cw.data(), c16.data(), nb * nb);
    });
    out.add(json_row("syrk_ln", "f16", nb, syrk_flops, tb, tr, gemm_gf));

    // HP TRSM task body, new vs old. New: packed-half solve straight off the
    // stored halves + scale, then repack. Old: widen the scaled tile to a
    // full f32 copy, run the f32 blocked TRSM, repack.
    std::vector<float> lfac(static_cast<std::size_t>(nb * nb));
    {
      const Matrix dense = spd(nb);
      for (index_t i = 0; i < nb; ++i) {
        for (index_t j = 0; j < nb; ++j) {
          lfac[static_cast<std::size_t>(i * nb + j)] =
              static_cast<float>(dense(i, j));
        }
      }
    }
    potrf_lower_ref_f32(lfac.data(), nb);
    std::vector<common::half> rhs16(static_cast<std::size_t>(nb * nb));
    float sr = convert_f32_to_f16_scaled(random_tile<float>(nb, 5).data(),
                                         rhs16.data(), nb * nb);
    const double trsm_flops = static_cast<double>(nb) * nb * nb;
    tb = time_op([&] {
      trsm_rlt_f16(lfac.data(), rhs16.data(), sr, cw.data(), nb, nb);
      sr = convert_f32_to_f16_scaled(cw.data(), rhs16.data(), nb * nb);
    });
    tr = time_op([&] {
      convert_f16_scaled_to_f32(rhs16.data(), sr, cw.data(), nb * nb);
      trsm_rlt_f32(lfac.data(), cw.data(), nb, nb);
      sr = convert_f32_to_f16_scaled(cw.data(), rhs16.data(), nb * nb);
    });
    out.add(json_row("trsm_rlt", "f16", nb, trsm_flops, tb, tr, gemm_gf));
  }
}

/// The four scaled-f16 conversions an HP tile task pays, at pipebench's tile
/// 128, with the scalar oracle's time where the vector form has one.
void bench_convert(exaclim::bench::JsonBench& out) {
  using exaclim::bench::time_op;
  constexpr index_t nb = 128;
  constexpr index_t count = nb * nb;
  const auto d = random_tile<double>(nb, 7);
  const auto f = random_tile<float>(nb, 8);
  std::vector<common::half> h(static_cast<std::size_t>(count));
  std::vector<double> dw(h.size());
  std::vector<float> fw(h.size());
  const float scale = convert_f64_to_f16_scaled(d.data(), h.data(), count);
  auto add = [&](const char* kernel, double s, double ref_s) {
    char buf[256];
    if (ref_s > 0.0) {
      std::snprintf(buf, sizeof(buf),
                    "{\"kernel\": \"%s\", \"n\": %lld, \"us\": %.3f, "
                    "\"ref_us\": %.3f, \"speedup\": %.3f}",
                    kernel, static_cast<long long>(nb), s * 1e6, ref_s * 1e6,
                    ref_s / s);
    } else {
      std::snprintf(buf, sizeof(buf),
                    "{\"kernel\": \"%s\", \"n\": %lld, \"us\": %.3f}",
                    kernel, static_cast<long long>(nb), s * 1e6);
    }
    out.add(buf);
  };
  add("convert_f64_to_f16_scaled",
      time_op([&] { convert_f64_to_f16_scaled(d.data(), h.data(), count); }),
      time_op([&] {
        convert_f64_to_f16_scaled_ref(d.data(), h.data(), count);
      }));
  add("convert_f32_to_f16_scaled",
      time_op([&] { convert_f32_to_f16_scaled(f.data(), h.data(), count); }),
      time_op([&] {
        convert_f32_to_f16_scaled_ref(f.data(), h.data(), count);
      }));
  add("convert_f16_scaled_to_f64",
      time_op([&] {
        convert_f16_scaled_to_f64(h.data(), scale, dw.data(), count);
      }),
      time_op([&] {
        convert_f16_scaled_to_f64_ref(h.data(), scale, dw.data(), count);
      }));
  add("convert_f16_scaled_to_f32",
      time_op([&] {
        convert_f16_scaled_to_f32(h.data(), scale, fw.data(), count);
      }),
      0.0);
}

/// Runtime-parallel tiled Cholesky on the unified team, with the scheduler's
/// steal/affinity/park counters recorded so scheduler changes stay
/// measurable in the committed trajectory. 16x16 tiles is the acceptance
/// shape for the work-stealing runtime (enough width that affinity and
/// steal policy matter).
void bench_scheduler(exaclim::bench::JsonBench& out) {
  using exaclim::bench::time_op;
  const index_t nb = 64;
  const index_t nt = 16;
  const index_t n = nb * nt;
  const Matrix a = spd(n);
  runtime::RtCholeskyResult last;
  const double secs = time_op(
      [&] {
        auto tiled = TiledSymmetricMatrix::from_dense(
            a, nb, make_band_policy(nt, PrecisionVariant::DP));
        last = runtime::cholesky_tiled_parallel(tiled, {});
      },
      0.3, 2);
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"kernel\": \"cholesky_rt\", \"precision\": \"f64\", \"n\": %lld, "
      "\"tiles\": %lld, \"ms\": %.4f, \"dag_ms\": %.4f, \"threads\": %u, "
      "\"efficiency\": %.3f, \"steal_hits\": %lld, \"steal_misses\": %lld, "
      "\"affinity_hits\": %lld, \"affinity_misses\": %lld, \"parks\": %lld, "
      "\"wakes\": %lld}",
      static_cast<long long>(n), static_cast<long long>(nt), secs * 1e3,
      last.run.seconds * 1e3, last.run.threads,
      last.run.parallel_efficiency(),
      static_cast<long long>(last.run.counters.steal_hits),
      static_cast<long long>(last.run.counters.steal_misses),
      static_cast<long long>(last.run.counters.affinity_hits),
      static_cast<long long>(last.run.counters.affinity_misses),
      static_cast<long long>(last.run.counters.parks),
      static_cast<long long>(last.run.counters.wakes));
  out.add(buf);
}

/// Checkpointed runtime Cholesky vs the plain run at the same shape: the
/// committed "ms" is the checkpointed time and "plain_ms" the baseline, so
/// the snapshot overhead (quiesce + serialize + fsync + rename per round)
/// stays a regression-visible number.
void bench_checkpoint(exaclim::bench::JsonBench& out) {
  using exaclim::bench::time_op;
  const index_t nb = 64;
  const index_t nt = 16;
  const index_t n = nb * nt;
  const Matrix a = spd(n);
  const double plain = time_op(
      [&] {
        auto tiled = TiledSymmetricMatrix::from_dense(
            a, nb, make_band_policy(nt, PrecisionVariant::DP));
        runtime::cholesky_tiled_parallel(tiled, {});
      },
      0.3, 2);
  const std::string ckpt_path = "BENCH_cholesky.ckpt";
  runtime::RtCholeskyResult last;
  const double ckpt = time_op(
      [&] {
        auto tiled = TiledSymmetricMatrix::from_dense(
            a, nb, make_band_policy(nt, PrecisionVariant::DP));
        runtime::RtCholeskyOptions opt;
        opt.ft.checkpoint_path = ckpt_path;
        opt.ft.checkpoint_every = 256;
        last = runtime::cholesky_tiled_parallel(tiled, opt);
      },
      0.3, 2);
  std::remove(ckpt_path.c_str());
  char buf[384];
  std::snprintf(
      buf, sizeof(buf),
      "{\"kernel\": \"cholesky_ckpt\", \"precision\": \"f64\", \"n\": %lld, "
      "\"tiles\": %lld, \"ms\": %.4f, \"plain_ms\": %.4f, "
      "\"overhead_pct\": %.2f, \"ckpt_every\": 256, \"checkpoints\": %lld}",
      static_cast<long long>(n), static_cast<long long>(nt), ckpt * 1e3,
      plain * 1e3, (ckpt / plain - 1.0) * 100.0,
      static_cast<long long>(last.checkpoints_written));
  out.add(buf);
}

void write_kernels_json() {
  exaclim::bench::JsonBench out;
  bench_type<double>("f64", out);
  bench_type<float>("f32", out);
  bench_f16(out);
  bench_convert(out);
  bench_scheduler(out);
  bench_checkpoint(out);
  // The ISA fields catch a stale build dir configured without -march=native,
  // which silently drops the wide micro-tiles and the F16C conversions and
  // makes every speedup column meaningless.
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
  const auto& team = exaclim::common::WorkerTeam::instance();
  const auto& topo = exaclim::common::Topology::instance();
  const unsigned hc = std::thread::hardware_concurrency();
  const bool degraded = hc <= 1;
  if (degraded) {
    std::fprintf(
        stderr,
        "*** WARNING: hardware_concurrency == %u — this looks like a "
        "1-core container.\n"
        "*** Kernel rates measured here are NOT comparable to multi-core "
        "runs; the\n"
        "*** emitted meta carries \"degraded_env\": true so trajectory "
        "tooling can skip it.\n",
        hc);
  }
  const KernelTuning tuning = active_tuning();
  char meta[640];
  std::snprintf(
      meta, sizeof(meta),
      "{\"bench\": \"kernels\", \"hardware_concurrency\": %u, "
      "\"degraded_env\": %s, \"avx512\": %d, \"f16c\": %d, \"threads\": %u, "
      "\"pinned\": %d, \"numa_nodes\": %u, "
      "\"l1d_bytes\": %zu, \"l2_bytes\": %zu, \"l3_bytes\": %zu, "
      "\"tune_mode\": \"%s\", "
      "\"f64_kc\": %lld, \"f64_mc\": %lld, \"f64_nc\": %lld, "
      "\"f32_kc\": %lld, \"f32_mc\": %lld, \"f32_nc\": %lld}",
      hc, degraded ? "true" : "false", avx512, f16c, team.max_participants(),
      team.pinned() ? 1 : 0, topo.num_nodes(), tuning.l1d_bytes,
      tuning.l2_bytes, tuning.l3_bytes, tune_mode_name(tuning.mode).c_str(),
      static_cast<long long>(tuning.f64.kc),
      static_cast<long long>(tuning.f64.mc),
      static_cast<long long>(tuning.f64.nc),
      static_cast<long long>(tuning.f32.kc),
      static_cast<long long>(tuning.f32.mc),
      static_cast<long long>(tuning.f32.nc));
  if (out.write("BENCH_kernels.json", meta)) {
    std::printf("wrote BENCH_kernels.json\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gbench") == 0) gbench = true;
  }
  write_kernels_json();
  if (gbench) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
