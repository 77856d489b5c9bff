// Coverage for the packed-panel TRSM / recursive POTRF rebuild and the
// engine's blocking report (`ctest -L kernels`):
//   * blocked-vs-*_ref parity over adversarial shapes — n = 1, the
//     micro-tile off-by-ones MR +- 1, sizes not a multiple of MR/NR/KC, and
//     sizes straddling the recursion midpoints — in f64, f32 and the
//     packed scaled-f16 TRSM;
//   * the /sys cache-size parser;
//   * a guard pinning the compiled-in blocking to 256/96/4096 — changing it
//     silently would re-round every committed EXACMDL4 artifact.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "linalg/kernels.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::linalg;

template <typename T>
std::vector<T> random_vec(index_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<T>(rng.normal(0.0, 1.0));
  return v;
}

/// Well-conditioned SPD tile (diagonally dominant exponential decay).
template <typename T>
std::vector<T> spd_tile(index_t n) {
  std::vector<T> a(static_cast<std::size_t>(n * n));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(i * n + j)] = static_cast<T>(
          std::exp(-std::abs(static_cast<double>(i - j)) / 16.0));
    }
    a[static_cast<std::size_t>(i * n + i)] += T(1);
  }
  return a;
}

template <typename T>
double max_rel_err(const std::vector<T>& got, const std::vector<T>& want) {
  double scale = 1.0;
  for (const T& w : want) {
    scale = std::max(scale, std::abs(static_cast<double>(w)));
  }
  double err = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err = std::max(err, std::abs(static_cast<double>(got[i]) -
                                 static_cast<double>(want[i])) /
                            scale);
  }
  return err;
}

// Adversarial sizes: unit, MR/NR off-by-ones for both element widths
// (4/8/16/32 +- 1), primes, panel NB = 64 +- 1, recursion midpoints, and a
// couple of sizes far from any multiple of KC.
const index_t kTrsmN[] = {1, 2, 3, 5, 7, 9, 15, 17, 31, 33,
                          63, 64, 65, 97, 127, 129, 255};
const index_t kTrsmM[] = {1, 2, 3, 5, 9, 17, 64, 95, 130};
const index_t kPotrfN[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63,
                           64, 65, 96, 97, 127, 128, 129, 191, 256, 257};

void expect_trsm_parity_f64(double tol) {
  for (index_t n : kTrsmN) {
    auto l = spd_tile<double>(n);
    potrf_lower_ref_f64(l.data(), n);
    for (index_t m : kTrsmM) {
      auto b = random_vec<double>(m * n, 100 + static_cast<std::uint64_t>(n));
      auto want = b;
      trsm_rlt_f64(l.data(), b.data(), m, n);
      trsm_rlt_ref_f64(l.data(), want.data(), m, n);
      EXPECT_LT(max_rel_err(b, want), tol) << "m=" << m << " n=" << n;
    }
  }
}

void expect_trsm_parity_f32(double tol) {
  for (index_t n : kTrsmN) {
    auto l = spd_tile<float>(n);
    potrf_lower_ref_f32(l.data(), n);
    for (index_t m : kTrsmM) {
      auto b = random_vec<float>(m * n, 200 + static_cast<std::uint64_t>(n));
      auto want = b;
      trsm_rlt_f32(l.data(), b.data(), m, n);
      trsm_rlt_ref_f32(l.data(), want.data(), m, n);
      EXPECT_LT(max_rel_err(b, want), tol) << "m=" << m << " n=" << n;
    }
  }
}

void expect_potrf_parity_f64(double tol) {
  for (index_t n : kPotrfN) {
    auto a = spd_tile<double>(n);
    auto want = a;
    potrf_lower_f64(a.data(), n);
    potrf_lower_ref_f64(want.data(), n);
    double err = 0.0;
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        err = std::max(
            err, std::abs(a[static_cast<std::size_t>(i * n + j)] -
                          want[static_cast<std::size_t>(i * n + j)]));
      }
    }
    EXPECT_LT(err, tol) << "n=" << n;
  }
}

void expect_potrf_parity_f32(double tol) {
  for (index_t n : kPotrfN) {
    auto a = spd_tile<float>(n);
    auto want = a;
    potrf_lower_f32(a.data(), n);
    potrf_lower_ref_f32(want.data(), n);
    double err = 0.0;
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        err = std::max(
            err,
            std::abs(static_cast<double>(a[static_cast<std::size_t>(i * n + j)]) -
                     static_cast<double>(
                         want[static_cast<std::size_t>(i * n + j)])));
      }
    }
    EXPECT_LT(err, tol) << "n=" << n;
  }
}

TEST(KernelsTuned, TrsmAdversarialParityF64) { expect_trsm_parity_f64(1e-12); }
TEST(KernelsTuned, TrsmAdversarialParityF32) { expect_trsm_parity_f32(1e-4); }
TEST(KernelsTuned, PotrfAdversarialParityF64) { expect_potrf_parity_f64(1e-11); }
TEST(KernelsTuned, PotrfAdversarialParityF32) { expect_potrf_parity_f32(1e-4); }

TEST(KernelsTuned, TrsmF16MatchesScalarOracle) {
  // The packed scaled-f16 TRSM must agree with widening the halves to f32
  // (scale applied) and running the scalar oracle on that RHS.
  for (index_t n : {1, 3, 9, 31, 64, 65, 129}) {
    auto l = spd_tile<float>(n);
    potrf_lower_ref_f32(l.data(), n);
    for (index_t m : {1, 5, 17, 96}) {
      auto src = random_vec<float>(m * n, 300 + static_cast<std::uint64_t>(n));
      for (auto& v : src) v *= 1e-3f;  // exercise a non-unit tile scale
      std::vector<common::half> h(static_cast<std::size_t>(m * n));
      const float scale = convert_f32_to_f16_scaled(src.data(), h.data(), m * n);
      std::vector<float> x(static_cast<std::size_t>(m * n));
      trsm_rlt_f16(l.data(), h.data(), scale, x.data(), m, n);
      std::vector<float> want(static_cast<std::size_t>(m * n));
      convert_f16_scaled_to_f32(h.data(), scale, want.data(), m * n);
      trsm_rlt_ref_f32(l.data(), want.data(), m, n);
      EXPECT_LT(max_rel_err(x, want), 1e-4) << "m=" << m << " n=" << n;
    }
  }
}

TEST(KernelsTuned, FixedDefaultsUnchanged) {
  // pipebench's meta line prints the mode and these six values.
  const KernelTuning t = active_tuning();
  EXPECT_EQ(tune_mode_name(t.mode), "fixed");
  for (const BlockSizes* bs : {&t.f64, &t.f32}) {
    EXPECT_EQ(bs->kc, 256);
    EXPECT_EQ(bs->mc, 96);
    EXPECT_EQ(bs->nc, 4096);
  }
}

TEST(KernelsTuned, ParseCacheSize) {
  EXPECT_EQ(common::parse_cache_size("48K"), 48u * 1024);
  EXPECT_EQ(common::parse_cache_size("2048K"), 2048u * 1024);
  EXPECT_EQ(common::parse_cache_size("36M"), 36u * 1024 * 1024);
  EXPECT_EQ(common::parse_cache_size("1G"), std::size_t{1} << 30);
  EXPECT_EQ(common::parse_cache_size("512"), 512u);
  EXPECT_EQ(common::parse_cache_size("64K "), 64u * 1024);
  EXPECT_EQ(common::parse_cache_size(""), 0u);
  EXPECT_EQ(common::parse_cache_size("K"), 0u);
  EXPECT_EQ(common::parse_cache_size("-4K"), 0u);
  EXPECT_EQ(common::parse_cache_size("12Q"), 0u);
  EXPECT_EQ(common::parse_cache_size("12K3"), 0u);
}

TEST(KernelsTuned, TopologyCacheIsConsistentWithTuningReport) {
  const common::CacheSizes& cache = common::Topology::instance().cache();
  const KernelTuning t = active_tuning();
  EXPECT_EQ(t.l1d_bytes, cache.l1d);
  EXPECT_EQ(t.l2_bytes, cache.l2);
  EXPECT_EQ(t.l3_bytes, cache.l3);
}

}  // namespace
