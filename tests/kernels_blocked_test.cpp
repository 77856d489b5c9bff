// The blocked tile kernels must reproduce the retained scalar *_ref oracles:
// 1e-12 relative in f64, 1e-4 relative in f32, across rectangular shapes,
// degenerate sizes, and sizes straddling every blocking boundary: the
// micro-tile MR/NR, the factorization panel NB = 64, and the cache blocks
// KC/MC — which are runtime-tuned now, so the shape lists below combine a
// fixed set (covering the default 96/256 blocking) with boundaries queried
// from the active tuning. The suite must pass under any tuning the
// autotuner may select, not just the compiled-in defaults. The packed
// sampling apply is held to a stricter rule: byte equality with its oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/kernels.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::linalg;

template <typename T>
std::vector<T> random_vec(index_t n, std::uint64_t seed, double scale = 1.0) {
  common::Rng rng(seed);
  std::vector<T> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<T>(rng.normal(0.0, scale));
  return v;
}

/// Well-conditioned SPD tile: diagonally dominant exponential decay.
template <typename T>
std::vector<T> spd_tile(index_t n, double diag_boost = 1.0) {
  std::vector<T> a(static_cast<std::size_t>(n * n));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a[static_cast<std::size_t>(i * n + j)] = static_cast<T>(
          std::exp(-std::abs(static_cast<double>(i - j)) / 16.0));
    }
    a[static_cast<std::size_t>(i * n + i)] += static_cast<T>(diag_boost);
  }
  return a;
}

template <typename T>
double max_rel_err(const std::vector<T>& got, const std::vector<T>& want) {
  double scale = 1.0;
  for (const T& w : want) scale = std::max(scale, std::abs(static_cast<double>(w)));
  double err = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err = std::max(err, std::abs(static_cast<double>(got[i]) -
                                 static_cast<double>(want[i])) /
                            scale);
  }
  return err;
}

constexpr double kTolF64 = 1e-12;
constexpr double kTolF32 = 1e-4;

// Shapes chosen to straddle every boundary in the blocked engine: unit and
// prime sizes, the micro-tile widths (4/8/16/32), the factorization panel
// NB = 64, the default cache blocks MC = 96 and KC = 256, and their
// off-by-ones.
struct Shape {
  index_t m, n, k;
};
const Shape kGemmShapes[] = {
    {1, 1, 1},   {1, 7, 3},    {7, 1, 5},     {5, 5, 1},    {7, 7, 7},
    {8, 32, 16}, {13, 9, 17},  {33, 31, 29},  {64, 64, 64}, {65, 63, 67},
    {96, 97, 95}, {100, 41, 257}, {128, 128, 300}, {256, 256, 256}};

/// The fixed shape list plus boundary shapes of whatever tuning is active
/// right now (KC/MC and their off-by-ones), capped so an autotuned MC in the
/// thousands does not blow the oracle's O(m n k) cost.
std::vector<Shape> gemm_shapes(const BlockSizes& bs) {
  std::vector<Shape> shapes(std::begin(kGemmShapes), std::end(kGemmShapes));
  const index_t kc = std::min<index_t>(bs.kc, 1024);
  const index_t mc = std::min<index_t>(bs.mc, 512);
  shapes.push_back({mc - 1, 33, kc - 1});
  shapes.push_back({mc, 32, kc});
  shapes.push_back({mc + 1, 31, kc + 1});
  return shapes;
}

std::vector<Shape> syrk_shapes_dynamic(const BlockSizes& bs) {
  const index_t kc = std::min<index_t>(bs.kc, 1024);
  const index_t mc = std::min<index_t>(bs.mc, 512);
  return {{mc - 1, 0, 31}, {mc, 0, 32}, {mc + 1, 0, kc + 1}};
}

TEST(KernelsBlocked, GemmMatchesRefF64) {
  for (const Shape& s : gemm_shapes(active_tuning().f64)) {
    auto a = random_vec<double>(s.m * s.k, 1);
    auto b = random_vec<double>(s.n * s.k, 2);
    auto c = random_vec<double>(s.m * s.n, 3);
    auto want = c;
    gemm_nt_minus_f64(a.data(), b.data(), c.data(), s.m, s.n, s.k);
    gemm_nt_minus_ref_f64(a.data(), b.data(), want.data(), s.m, s.n, s.k);
    EXPECT_LT(max_rel_err(c, want), kTolF64)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

TEST(KernelsBlocked, GemmMatchesRefF32) {
  for (const Shape& s : gemm_shapes(active_tuning().f32)) {
    auto a = random_vec<float>(s.m * s.k, 4);
    auto b = random_vec<float>(s.n * s.k, 5);
    auto c = random_vec<float>(s.m * s.n, 6);
    auto want = c;
    gemm_nt_minus_f32(a.data(), b.data(), c.data(), s.m, s.n, s.k);
    gemm_nt_minus_ref_f32(a.data(), b.data(), want.data(), s.m, s.n, s.k);
    EXPECT_LT(max_rel_err(c, want), kTolF32)
        << "m=" << s.m << " n=" << s.n << " k=" << s.k;
  }
}

const Shape kSyrkShapes[] = {{1, 0, 1},   {7, 0, 7},    {13, 0, 29},
                             {64, 0, 64}, {65, 0, 127}, {96, 0, 96},
                             {97, 0, 95}, {192, 0, 256}, {256, 0, 256}};

std::vector<Shape> syrk_shapes(const BlockSizes& bs) {
  std::vector<Shape> shapes(std::begin(kSyrkShapes), std::end(kSyrkShapes));
  for (const Shape& s : syrk_shapes_dynamic(bs)) shapes.push_back(s);
  return shapes;
}

TEST(KernelsBlocked, SyrkMatchesRefF64) {
  for (const Shape& s : syrk_shapes(active_tuning().f64)) {
    auto a = random_vec<double>(s.m * s.k, 7);
    auto c = random_vec<double>(s.m * s.m, 8);
    auto want = c;
    syrk_ln_minus_f64(a.data(), c.data(), s.m, s.k);
    syrk_ln_minus_ref_f64(a.data(), want.data(), s.m, s.k);
    EXPECT_LT(max_rel_err(c, want), kTolF64) << "m=" << s.m << " k=" << s.k;
  }
}

TEST(KernelsBlocked, SyrkMatchesRefF32) {
  for (const Shape& s : syrk_shapes(active_tuning().f32)) {
    auto a = random_vec<float>(s.m * s.k, 9);
    auto c = random_vec<float>(s.m * s.m, 10);
    auto want = c;
    syrk_ln_minus_f32(a.data(), c.data(), s.m, s.k);
    syrk_ln_minus_ref_f32(a.data(), want.data(), s.m, s.k);
    EXPECT_LT(max_rel_err(c, want), kTolF32) << "m=" << s.m << " k=" << s.k;
  }
}

TEST(KernelsBlocked, SyrkLeavesStrictUpperUntouched) {
  const index_t m = 65, k = 33;
  auto a = random_vec<double>(m * k, 11);
  auto c = random_vec<double>(m * m, 12);
  const auto before = c;
  syrk_ln_minus_f64(a.data(), c.data(), m, k);
  for (index_t i = 0; i < m; ++i) {
    for (index_t j = i + 1; j < m; ++j) {
      EXPECT_EQ(c[static_cast<std::size_t>(i * m + j)],
                before[static_cast<std::size_t>(i * m + j)]);
    }
  }
}

TEST(KernelsBlocked, TrsmMatchesRefF64) {
  for (index_t n : {1, 7, 31, 64, 65, 100, 129, 256}) {
    for (index_t m : {1, 7, 64, 96, 200}) {
      auto l = spd_tile<double>(n);
      potrf_lower_ref_f64(l.data(), n);
      auto b = random_vec<double>(m * n, 13);
      auto want = b;
      trsm_rlt_f64(l.data(), b.data(), m, n);
      trsm_rlt_ref_f64(l.data(), want.data(), m, n);
      EXPECT_LT(max_rel_err(b, want), kTolF64) << "m=" << m << " n=" << n;
    }
  }
}

TEST(KernelsBlocked, TrsmMatchesRefF32) {
  for (index_t n : {1, 7, 64, 65, 129}) {
    for (index_t m : {1, 13, 96}) {
      auto l = spd_tile<float>(n);
      potrf_lower_ref_f32(l.data(), n);
      auto b = random_vec<float>(m * n, 14);
      auto want = b;
      trsm_rlt_f32(l.data(), b.data(), m, n);
      trsm_rlt_ref_f32(l.data(), want.data(), m, n);
      EXPECT_LT(max_rel_err(b, want), kTolF32) << "m=" << m << " n=" << n;
    }
  }
}

TEST(KernelsBlocked, PotrfMatchesRefF64) {
  for (index_t n : {1, 2, 7, 63, 64, 65, 96, 100, 129, 200, 256}) {
    auto a = spd_tile<double>(n);
    auto want = a;
    potrf_lower_f64(a.data(), n);
    potrf_lower_ref_f64(want.data(), n);
    // Compare the lower triangles only (strictly-upper is untouched input).
    double err = 0.0;
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        err = std::max(err, std::abs(a[static_cast<std::size_t>(i * n + j)] -
                                     want[static_cast<std::size_t>(i * n + j)]));
      }
    }
    EXPECT_LT(err, kTolF64 * 10) << "n=" << n;
  }
}

TEST(KernelsBlocked, PotrfMatchesRefF32) {
  for (index_t n : {1, 7, 64, 65, 129}) {
    auto a = spd_tile<float>(n);
    auto want = a;
    potrf_lower_f32(a.data(), n);
    potrf_lower_ref_f32(want.data(), n);
    double err = 0.0;
    for (index_t i = 0; i < n; ++i) {
      for (index_t j = 0; j <= i; ++j) {
        err = std::max(
            err, std::abs(static_cast<double>(a[static_cast<std::size_t>(i * n + j)]) -
                          static_cast<double>(want[static_cast<std::size_t>(i * n + j)])));
      }
    }
    EXPECT_LT(err, kTolF32) << "n=" << n;
  }
}

TEST(KernelsBlocked, PotrfReconstructsInput) {
  // End-to-end: L * L^T must reproduce the original SPD tile.
  const index_t n = 129;
  auto a = spd_tile<double>(n);
  const auto orig = a;
  potrf_lower_f64(a.data(), n);
  double err = 0.0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      double acc = 0.0;
      for (index_t p = 0; p <= j; ++p) {
        acc += a[static_cast<std::size_t>(i * n + p)] *
               a[static_cast<std::size_t>(j * n + p)];
      }
      err = std::max(err, std::abs(acc - orig[static_cast<std::size_t>(i * n + j)]));
    }
  }
  EXPECT_LT(err, 1e-10);
}

TEST(KernelsBlocked, PotrfThrowsOnIndefiniteTile) {
  const index_t n = 96;
  auto a = spd_tile<double>(n);
  a[static_cast<std::size_t>(70 * n + 70)] = -100.0;  // in the second panel
  EXPECT_THROW(potrf_lower_f64(a.data(), n), NumericalError);
}

TEST(KernelsBlocked, GemmZeroSizesAreNoops) {
  auto c = random_vec<double>(4 * 4, 15);
  const auto before = c;
  gemm_nt_minus_f64(nullptr, nullptr, c.data(), 0, 4, 4);
  gemm_nt_minus_f64(nullptr, nullptr, c.data(), 4, 0, 4);
  gemm_nt_minus_f64(nullptr, nullptr, c.data(), 4, 4, 0);
  EXPECT_EQ(c, before);
}

/// A random packed lower factor with an 8-aligned payload, as the model
/// file lays it out. F16Scaled rows mix normal and subnormal halves under
/// unit, power-of-two and non-power-of-two row scales.
struct PackedFactor {
  std::vector<double> words;  // backing store (8-byte aligned)
  PackedFactorView view;
};

PackedFactor random_packed_factor(PackedStorage storage, index_t n,
                                  std::uint64_t seed) {
  PackedFactor f;
  const std::size_t bytes = packed_factor_bytes(storage, n);
  f.words.assign((bytes + 7) / 8, 0.0);
  auto* out = reinterpret_cast<unsigned char*>(f.words.data());
  auto put = [&out](const auto& value) {
    std::memcpy(out, &value, sizeof(value));
    out += sizeof(value);
  };
  common::Rng rng(seed);
  for (index_t r = 0; r < n; ++r) {
    if (storage == PackedStorage::F16Scaled) {
      put(r % 3 == 0 ? 1.0f : r % 3 == 1 ? 0.375f : std::ldexp(1.0f, -9));
    }
    for (index_t c = 0; c <= r; ++c) {
      const double v = rng.normal();
      if (storage == PackedStorage::F64) put(v);
      if (storage == PackedStorage::F32) put(static_cast<float>(v));
      if (storage == PackedStorage::F16Scaled) {
        const auto sign = static_cast<std::uint16_t>(v < 0.0 ? 0x8000u : 0u);
        const auto mant = static_cast<std::uint16_t>(rng.uniform_u64(0x400));
        const auto exp = static_cast<std::uint16_t>(  // 0 = subnormal
            rng.uniform() < 0.25 ? 0 : 1 + rng.uniform_u64(30));
        put(static_cast<std::uint16_t>(sign | (exp << 10) | mant));
      }
    }
  }
  f.view = {reinterpret_cast<const unsigned char*>(f.words.data()), bytes, n,
            storage};
  return f;
}

TEST(KernelsBlocked, SampleApplyMatchesRefBytes) {
  constexpr index_t n = 301;
  common::Rng rng(2024);
  auto draw = [&rng](index_t lo, index_t hi) {  // uniform in [lo, hi]
    return lo + static_cast<index_t>(rng.uniform_u64(
                    static_cast<std::uint64_t>(hi - lo + 1)));
  };
  for (const PackedStorage storage :
       {PackedStorage::F64, PackedStorage::F32, PackedStorage::F16Scaled}) {
    const PackedFactor f =
        random_packed_factor(storage, n, 40 + static_cast<int>(storage));
    std::vector<index_t> widths = {1, 8, 9, 16, 33, 64};
    for (int i = 0; i < 4; ++i) widths.push_back(draw(1, 64));
    for (const index_t k : widths) {
      const auto z = random_vec<double>(n * k, 100 + k);
      const auto x0 = random_vec<double>(n * k, 200 + k);  // prior pass
      const std::uint64_t all =
          k == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << k) - 1;
      const std::uint64_t masks[] = {
          0, rng.next_u64() & all,
          all & ~(std::uint64_t{1} << draw(0, k - 1)),  // all but one
          all};
      const index_t tiles[] = {draw(2, n + 20), 128, 256};
      for (const index_t tile : tiles) {
        for (const std::uint64_t skip : masks) {
          std::vector<double> got = x0;
          std::vector<double> want = x0;
          auto apply = [&](index_t r0, index_t r1, index_t c0, index_t c1) {
            sample_apply_packed(f.view, r0, r1, c0, c1, z.data(), got.data(),
                                k, skip);
            sample_apply_packed_ref(f.view, r0, r1, c0, c1, z.data(),
                                    want.data(), k, skip);
          };
          // Every DAG block, in DAG order (block rows outer, ascending bj).
          const index_t nb = (n + tile - 1) / tile;
          for (index_t bi = 0; bi < nb; ++bi) {
            for (index_t bj = 0; bj <= bi; ++bj) {
              apply(bi * tile, std::min(n, (bi + 1) * tile), bj * tile,
                    std::min(n, (bj + 1) * tile));
            }
          }
          // Whole-factor strips, and an off-grid block whose top rows
          // (r < c0) have an empty range.
          apply(0, n, 0, n);
          const index_t c0 = draw(1, n - 1);
          const index_t c1 = draw(c0, n);
          apply(draw(0, c0 - 1), n, c0, c1);
          const std::string where =
              "storage=" + std::to_string(static_cast<int>(storage)) +
              " k=" + std::to_string(k) + " tile=" + std::to_string(tile) +
              " skip=" + std::to_string(skip);
          EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                got.size() * sizeof(double)),
                    0)
              << where;
          index_t moved = 0;  // cancelled entries that changed
          for (index_t c = 0; c < n; ++c) {
            for (index_t kk = 0; kk < k; ++kk) {
              const auto i = static_cast<std::size_t>(c * k + kk);
              if (((skip >> kk) & 1u) != 0 &&
                  std::memcmp(&got[i], &x0[i], sizeof(double)) != 0) {
                ++moved;
              }
            }
          }
          EXPECT_EQ(moved, 0) << where;
        }
      }
    }
  }
}

}  // namespace
