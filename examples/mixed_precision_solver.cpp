// Using the HPC layer directly: mixed-precision tile Cholesky on the task
// runtime (the paper's solver, standalone).
//
//   build/examples/mixed_precision_solver [n] [nb]
//
// Factorizes an SPD covariance-like matrix under all four precision
// variants, on 1 thread and all cores, with sender- and receiver-side
// conversion, printing time, rate, residual, storage, and conversion counts
// — a miniature of Figures 5/6 you can run anywhere.
#include <cstdio>
#include <cstdlib>

#include "common/parallel.hpp"
#include "linalg/solve.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

int main(int argc, char** argv) {
  using namespace exaclim;
  using namespace exaclim::linalg;
  const index_t n = argc > 1 ? std::atoll(argv[1]) : 1536;
  const index_t nb = argc > 2 ? std::atoll(argv[2]) : 192;
  const index_t nt = (n + nb - 1) / nb;

  // Covariance-like SPD matrix with decaying off-diagonal strength.
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(static_cast<double>(i - j)) / 64.0);
    }
    a(i, i) += 1e-3;
  }

  std::printf("Mixed-precision tile Cholesky: n = %lld, nb = %lld, nt = %lld\n\n",
              static_cast<long long>(n), static_cast<long long>(nb),
              static_cast<long long>(nt));
  std::printf("%-9s %-9s %8s %9s %11s %10s %12s\n", "variant", "placement",
              "threads", "time(s)", "GFlop/s", "residual", "conversions");

  for (PrecisionVariant v : kAllVariants) {
    for (auto placement :
         {ConversionPlacement::Sender, ConversionPlacement::Receiver}) {
      for (unsigned threads : {1u, common::default_thread_count()}) {
        auto tiled = TiledSymmetricMatrix::from_dense(
            a, nb, make_band_policy(nt, v));
        runtime::RtCholeskyOptions opt;
        opt.placement = placement;
        opt.threads = threads;
        const auto result = runtime::cholesky_tiled_parallel(tiled, opt);
        const Matrix l = tiled.to_dense(true);
        const double flops = static_cast<double>(n) * n * n / 3.0;
        std::printf("%-9s %-9s %8u %9.3f %11.1f %10.2e %12.0f\n",
                    variant_name(v).c_str(),
                    placement == ConversionPlacement::Sender ? "sender"
                                                             : "receiver",
                    threads, result.run.seconds,
                    flops / result.run.seconds / 1e9,
                    cholesky_residual(a, l), result.element_conversions);
      }
    }
  }

  // Storage footprint per variant (the memory story of Section III-D).
  std::printf("\nTile storage for n = %lld:\n", static_cast<long long>(n));
  for (PrecisionVariant v : kAllVariants) {
    const auto map = make_band_policy(nt, v);
    std::printf("  %-9s %8.1f MB (DP fraction %4.1f%%)\n",
                variant_name(v).c_str(), map.storage_bytes(n, nb) / 1e6,
                100.0 * map.fraction(Precision::FP64));
  }
  return 0;
}
