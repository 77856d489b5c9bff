// Ablation: precision-assignment policy — DP band width, and band-based vs
// tile-centric (norm-adaptive, [47]) assignment.
//
// The design question behind DP/HP: how much double precision is actually
// needed near the diagonal, and does adapting to tile norms beat a fixed
// band? Measured factorization residual vs storage for both families on a
// covariance with realistic decay.
#include "bench_util.hpp"
#include "linalg/precision_policy.hpp"
#include "runtime/failure.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

using namespace exaclim;
using namespace exaclim::linalg;

int main() {
  bench::print_header("Ablation — precision policy (band width, adaptivity)");

  const index_t n = 1024;
  const index_t nb = 64;
  const index_t nt = (n + nb - 1) / nb;

  for (double length_scale : {16.0, 64.0, 256.0}) {
    const Matrix a = bench::decaying_spd(n, length_scale);
    std::printf("\nCorrelation length %.0f (of n = %lld):\n", length_scale,
                static_cast<long long>(n));
    std::printf("%-24s %12s %12s %10s\n", "policy", "residual", "storage MB",
                "DP frac");

    // Runs one policy; ill-conditioned matrices can lose positive
    // definiteness under fp16 rounding — report that instead of crashing
    // (it is the accuracy cliff this ablation is mapping). The runtime
    // reports a failed POTRF as a TaskFailure.
    auto run_policy = [&](const char* label, PrecisionMap map) {
      auto tiled = TiledSymmetricMatrix::from_dense(a, nb, map);
      try {
        runtime::cholesky_tiled_parallel(tiled);
      } catch (const runtime::TaskFailure&) {
        std::printf("%-24s %12s %12.2f %9.1f%%\n", label, "NOT PD",
                    map.storage_bytes(n, nb) / 1e6,
                    100.0 * map.fraction(Precision::FP64));
        return;
      }
      const Matrix l = tiled.to_dense(true);
      std::printf("%-24s %12.3e %12.2f %9.1f%%\n", label,
                  cholesky_residual(a, l), map.storage_bytes(n, nb) / 1e6,
                  100.0 * map.fraction(Precision::FP64));
    };

    // Band policies with growing DP band, low precision fp16.
    for (index_t dp_band : {0, 1, 2, 4, 8}) {
      char label[64];
      std::snprintf(label, sizeof(label), "DP/HP band=%lld",
                    static_cast<long long>(dp_band));
      run_policy(label, make_band_policy(nt, PrecisionVariant::DP_HP, dp_band));
    }
    // Tile-centric adaptive policy at two threshold settings.
    for (const auto& [sp_t, hp_t] :
         {std::pair<double, double>{1e-1, 1e-2},
          std::pair<double, double>{1e-2, 1e-4}}) {
      char label[64];
      std::snprintf(label, sizeof(label), "tile-centric %.0e/%.0e", sp_t, hp_t);
      run_policy(label, make_tile_centric_policy(a, nb, sp_t, hp_t));
    }
  }
  std::printf("\nReading: with fast-decaying correlation the adaptive policy\n"
              "matches band accuracy at lower storage; with slow decay the\n"
              "band must widen (or thresholds tighten) — exactly the\n"
              "\"precision follows correlation strength\" design rule of the\n"
              "paper (Section I).\n");
  return 0;
}
