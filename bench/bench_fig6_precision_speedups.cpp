// Figure 6: Cholesky throughput of DP / DP/SP / DP/SP/HP / DP/HP on 2,048
// Summit nodes, sizes 2.1M - 8.39M; DP reaches 61.7% of peak; speedups
// 2.0x / 3.2x / 5.2x; DP/HP peaks at ~304.84 PFlop/s.
//
// (a) modelled at paper scale with the calibrated Summit model;
// (b) measured on this node with the real mixed-precision solver (same
//     variant ordering, CPU-sized matrices) — the shape that transfers.
#include "bench_util.hpp"
#include "common/timer.hpp"
#include "perfmodel/calibration.hpp"
#include "perfmodel/cholesky_sim.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

using namespace exaclim;
using linalg::PrecisionVariant;

namespace {

/// Prints one measured table: every variant factoring
/// decaying_spd(n, length) with tile nb on all cores.
void measure_variants(index_t n, index_t nb, double length) {
  std::printf("\nMeasured on this node (n = %lld, nb = %lld, length %.0f, "
              "all cores):\n",
              static_cast<long long>(n), static_cast<long long>(nb), length);
  std::printf("%-9s %10s %12s %10s\n", "variant", "time(s)", "GFlop/s",
              "speedup");
  const index_t nt = (n + nb - 1) / nb;
  const linalg::Matrix a = bench::decaying_spd(n, length);
  double dp_time = 0.0;
  for (PrecisionVariant v : linalg::kAllVariants) {
    auto tiled = linalg::TiledSymmetricMatrix::from_dense(
        a, nb, linalg::make_band_policy(nt, v));
    runtime::RtCholeskyOptions opt;
    const auto result = runtime::cholesky_tiled_parallel(tiled, opt);
    if (v == PrecisionVariant::DP) dp_time = result.run.seconds;
    const double flops = static_cast<double>(n) * n * n / 3.0;
    std::printf("%-9s %10.3f %12.1f %10.2f\n", linalg::variant_name(v).c_str(),
                result.run.seconds, flops / result.run.seconds / 1e9,
                dp_time / result.run.seconds);
  }
}

}  // namespace

int main() {
  bench::print_header(
      "Figure 6 — precision-variant throughput, 2,048 Summit nodes");

  const auto anchors = perfmodel::paper_fig6();
  const auto machine = perfmodel::summit();

  std::printf("\nModelled PFlop/s by matrix size:\n%10s", "size");
  for (PrecisionVariant v : linalg::kAllVariants) {
    std::printf(" %10s", linalg::variant_name(v).c_str());
  }
  std::printf("\n");
  double dp_at_max = 0.0;
  double by_variant_at_max[4] = {0, 0, 0, 0};
  for (double size :
       {2.10e6, 3.15e6, 4.19e6, 5.24e6, 6.29e6, 7.34e6, 8.39e6}) {
    std::printf("%9.2fM", size / 1e6);
    int idx = 0;
    for (PrecisionVariant v : linalg::kAllVariants) {
      perfmodel::SimConfig cfg;
      cfg.machine = machine;
      cfg.nodes = 2048;
      cfg.matrix_size = size;
      cfg.tile_size = 2048;
      cfg.variant = v;
      const auto r = perfmodel::simulate_cholesky(cfg);
      std::printf(" %10.1f", r.pflops);
      if (size == 8.39e6) {
        by_variant_at_max[idx] = r.pflops;
        if (v == PrecisionVariant::DP) dp_at_max = r.pflops;
      }
      ++idx;
    }
    std::printf("\n");
  }

  std::printf("\nAnchors at 8.39M (paper vs model):\n");
  bench::print_vs("DP fraction of 2048-node peak",
                  anchors.dp_fraction_of_peak,
                  dp_at_max / machine.dp_peak_pflops(2048));
  bench::print_vs("DP/SP speedup over DP", anchors.speedup_dp_sp,
                  by_variant_at_max[1] / dp_at_max);
  bench::print_vs("DP/SP/HP speedup over DP", anchors.speedup_dp_sp_hp,
                  by_variant_at_max[2] / dp_at_max);
  bench::print_vs("DP/HP speedup over DP", anchors.speedup_dp_hp,
                  by_variant_at_max[3] / dp_at_max);
  bench::print_vs("DP/HP PFlop/s", anchors.dp_hp_pflops,
                  by_variant_at_max[3]);

  // (b) Measured on this node: the same experiment at CPU scale, on two
  // decay rates. At length 100 the far corner is e^-25.6, inside f32's
  // normal range; at length 16 it is e^-160, and every entry more than
  // about 1400 rows off the diagonal lies below f32's normal floor 2^-126 —
  // the regime where the FP32/FP16 tasks' flush-to-zero (common/fpenv.hpp)
  // decides what the narrow variants cost.
  for (const double length : {100.0, 16.0}) {
    measure_variants(2560, 160, length);
  }
  std::printf("\n(CPU fp32 is ~2x fp64 and software fp16 adds conversion\n"
              "work, so measured CPU speedups are smaller than GPU tensor-\n"
              "core speedups — the ordering DP < DP/SP <= DP/HP transfers.)\n");
  return 0;
}
