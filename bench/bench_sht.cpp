// Measured SHT performance: forward analysis, inverse synthesis, plan
// construction (Wigner/Legendre precomputation), and the O(L^3)-per-slot
// scaling claim of Section III-A.2.
//
// Default invocation runs the quick bench and writes BENCH_sht.json (the
// perf trajectory future PRs regress against), including a speedup column
// against the brute-force analyze_reference oracle at small L; pass
// --gbench to additionally run the full Google-benchmark suite below.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <utility>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "common/topology.hpp"
#include "fft/fft.hpp"
#include "linalg/kernels.hpp"
#include "sht/packing.hpp"
#include "sht/sht.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::sht;

std::vector<cplx> random_coeffs(index_t band_limit, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<cplx> c(static_cast<std::size_t>(tri_count(band_limit)));
  for (index_t l = 0; l < band_limit; ++l) {
    c[static_cast<std::size_t>(tri_index(l, 0))] = {rng.normal(), 0.0};
    for (index_t m = 1; m <= l; ++m) {
      c[static_cast<std::size_t>(tri_index(l, m))] = {rng.normal(),
                                                      rng.normal()};
    }
  }
  return c;
}

void BM_ShtAnalyze(benchmark::State& state) {
  const index_t L = state.range(0);
  const GridShape grid{L + 1, 2 * L};
  const SHTPlan plan(L, grid);
  const auto field = plan.synthesize(random_coeffs(L, 1));
  for (auto _ : state) {
    auto coeffs = plan.analyze(field);
    benchmark::DoNotOptimize(coeffs.data());
  }
  // O(L^3) useful work per slot.
  state.counters["L^3/s"] = benchmark::Counter(
      static_cast<double>(L) * L * L * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShtAnalyze)->Arg(16)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

void BM_ShtSynthesize(benchmark::State& state) {
  const index_t L = state.range(0);
  const GridShape grid{L + 1, 2 * L};
  const SHTPlan plan(L, grid);
  const auto coeffs = random_coeffs(L, 2);
  for (auto _ : state) {
    auto field = plan.synthesize(coeffs);
    benchmark::DoNotOptimize(field.data());
  }
  state.counters["L^3/s"] = benchmark::Counter(
      static_cast<double>(L) * L * L * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ShtSynthesize)->Arg(16)->Arg(32)->Arg(64)->Arg(96)->Arg(128);

void BM_ShtPlanConstruction(benchmark::State& state) {
  // Paper Section III-A.2: pre-compute Wigner/Legendre once, amortized over
  // all T temporal observations.
  const index_t L = state.range(0);
  for (auto _ : state) {
    SHTPlan plan(L, GridShape{L + 1, 2 * L});
    benchmark::DoNotOptimize(&plan);
  }
}
BENCHMARK(BM_ShtPlanConstruction)->Arg(32)->Arg(64)->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_FftEra5Longitude(benchmark::State& state) {
  // The 1440-point longitude FFT of an ERA5 row (non-power-of-two).
  const auto plan = fft::get_plan(1440);
  std::vector<cplx> row(1440);
  common::Rng rng(3);
  for (auto& v : row) v = {rng.normal(), 0.0};
  for (auto _ : state) {
    auto copy = row;
    plan->forward(copy.data());
    benchmark::DoNotOptimize(copy.data());
  }
}
BENCHMARK(BM_FftEra5Longitude);

void BM_PackUnpack(benchmark::State& state) {
  const index_t L = state.range(0);
  const auto coeffs = random_coeffs(L, 4);
  for (auto _ : state) {
    auto packed = pack_real(L, coeffs);
    auto back = unpack_real(L, packed);
    benchmark::DoNotOptimize(back.data());
  }
}
BENCHMARK(BM_PackUnpack)->Arg(32)->Arg(128);

// --- BENCH_sht.json quick bench ---------------------------------------------

void write_sht_json() {
  using exaclim::bench::time_op;
  exaclim::bench::JsonBench out;
  // One forward FFT per length: pipebench's rings (60 longitudes and 56
  // colatitude samples on the daily grid, 64 on the emulate grid), powers of
  // two, 7-smooth SHT lengths up to ERA5's 1440, and the Bluestein primes 97
  // and 719. Each timed op copies the n-value input back first, so repeated
  // transforms never overflow.
  for (index_t n : {32, 56, 60, 64, 97, 192, 719, 720, 1440}) {
    const auto plan = fft::get_plan(n);
    common::Rng rng(static_cast<std::uint64_t>(n));
    std::vector<cplx> input(static_cast<std::size_t>(n));
    for (auto& v : input) v = {rng.normal(), rng.normal()};
    std::vector<cplx> work(input.size());
    const double t = time_op([&] {
      std::copy(input.begin(), input.end(), work.begin());
      plan->forward(work.data());
      benchmark::DoNotOptimize(work.data());
      benchmark::ClobberMemory();
    });
    index_t r = n;
    for (index_t p : {2, 3, 5, 7}) {
      while (r % p == 0) r /= p;
    }
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"fft_n\": %lld, \"path\": \"%s\", \"forward_us\": %.4f}",
                  static_cast<long long>(n), r == 1 ? "stockham" : "bluestein",
                  t * 1e6);
    out.add(buf);
  }
  // SHT rows on L + 1 by 2L grids, plus pipebench's train-daily model shape
  // (29 x 60, L = 28); its emulate shape is the L = 32 row.
  const std::pair<index_t, GridShape> shapes[] = {
      {16, {17, 32}},  {28, {29, 60}},   {32, {33, 64}},
      {64, {65, 128}}, {96, {97, 192}}, {128, {129, 256}}};
  for (const auto& [L, grid] : shapes) {
    const SHTPlan plan(L, grid);
    const auto coeffs = random_coeffs(L, 1);
    const auto field = plan.synthesize(coeffs);

    const double ta = time_op([&] {
      auto c = plan.analyze(field);
      benchmark::DoNotOptimize(c.data());
    });
    const double ts = time_op([&] {
      auto f = plan.synthesize(coeffs);
      benchmark::DoNotOptimize(f.data());
    });
    // Brute-force least-squares oracle: O(L^6) solve, only feasible tiny.
    double tref = 0.0;
    if (L <= 16) {
      tref = time_op(
          [&] {
            auto c = analyze_reference(L, grid, field);
            benchmark::DoNotOptimize(c.data());
          },
          0.2, 1);
    }
    const double l3 = static_cast<double>(L) * L * L;
    char ref_cols[128] = "";
    if (tref > 0.0) {
      std::snprintf(ref_cols, sizeof(ref_cols),
                    ", \"ref_ms\": %.4f, \"speedup_vs_ref\": %.2f",
                    tref * 1e3, tref / ta);
    }
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"L\": %lld, \"nlat\": %lld, \"nlon\": %lld, "
        "\"analyze_ms\": %.4f, \"synthesize_ms\": %.4f, "
        "\"analyze_l3_per_s\": %.4g, \"synthesize_l3_per_s\": %.4g%s}",
        static_cast<long long>(L), static_cast<long long>(grid.nlat),
        static_cast<long long>(grid.nlon), ta * 1e3, ts * 1e3, l3 / ta,
        l3 / ts, ref_cols);
    out.add(buf);
  }
  const auto& team = exaclim::common::WorkerTeam::instance();
  const auto& topo = exaclim::common::Topology::instance();
  const unsigned hc = std::thread::hardware_concurrency();
  const bool degraded = hc <= 1;
  if (degraded) {
    std::fprintf(stderr,
                 "*** WARNING: hardware_concurrency == %u (1-core "
                 "container?) — rates below are not comparable to "
                 "multi-core runs; meta carries \"degraded_env\": true.\n",
                 hc);
  }
  const linalg::KernelTuning tuning = linalg::active_tuning();
  char meta[512];
  std::snprintf(
      meta, sizeof(meta),
      "{\"bench\": \"sht\", \"hardware_concurrency\": %u, "
      "\"degraded_env\": %s, \"threads\": %u, \"pinned\": %d, "
      "\"numa_nodes\": %u, \"l1d_bytes\": %zu, \"l2_bytes\": %zu, "
      "\"l3_bytes\": %zu, \"tune_mode\": \"%s\", "
      "\"f64_kc\": %lld, \"f64_mc\": %lld, \"f64_nc\": %lld, "
      "\"f32_kc\": %lld, \"f32_mc\": %lld, \"f32_nc\": %lld}",
      hc, degraded ? "true" : "false", team.max_participants(),
      team.pinned() ? 1 : 0, topo.num_nodes(), tuning.l1d_bytes,
      tuning.l2_bytes, tuning.l3_bytes,
      linalg::tune_mode_name(tuning.mode).c_str(),
      static_cast<long long>(tuning.f64.kc),
      static_cast<long long>(tuning.f64.mc),
      static_cast<long long>(tuning.f64.nc),
      static_cast<long long>(tuning.f32.kc),
      static_cast<long long>(tuning.f32.mc),
      static_cast<long long>(tuning.f32.nc));
  if (out.write("BENCH_sht.json", meta)) {
    std::printf("wrote BENCH_sht.json\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--gbench") == 0) gbench = true;
  }
  write_sht_json();
  if (gbench) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
