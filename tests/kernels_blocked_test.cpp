// The blocked tile kernels must reproduce the retained scalar *_ref oracles:
// 1e-12 relative in f64, 1e-4 relative in f32, across rectangular shapes,
// degenerate sizes, and sizes straddling every blocking boundary: the
// micro-tile MR/NR, the factorization panel NB = 64, and the cache blocks
// KC/MC, whose off-by-ones the shape lists below take from the engine's
// compiled-in blocking as active_tuning() reports it. The packed
// sampling apply and the training kernels (the batched trend fit, the
// harmonic-table trend series and the blocked innovation covariance) are
// held to a stricter rule: byte equality with their oracles, and so are the
// explicit AVX-512 micro-kernels with the loop micro-kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "climate/synthetic_esm.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "linalg/kernels.hpp"
#include "stats/covariance.hpp"
#include "stats/trend.hpp"

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

/// The fixed shape list plus the engine's KC/MC boundaries and their
/// off-by-ones, capped so a larger blocking cannot blow the oracle's
/// O(m n k) cost.
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

bool same_bytes(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

template <typename T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// A random tile narrowed to packed halves, with its max-abs scale.
struct HalfTile {
  std::vector<common::half> h;
  float scale = 1.0f;
};

HalfTile random_half_tile(index_t count, std::uint64_t seed) {
  const auto f = random_vec<float>(count, seed);
  HalfTile t;
  t.h.resize(static_cast<std::size_t>(count));
  t.scale = convert_f32_to_f16_scaled(f.data(), t.h.data(), count);
  return t;
}

TEST(KernelsBlocked, MicroKernelMatchesLoopBytes) {
  // The explicit AVX-512 micro-kernels against the loop micro-kernel through
  // every public entry point: m and n ragged around the 4/8 x 32 register
  // tile, depths below KC and past it (two and three k panels), and the
  // packed-half write-back scale alpha = 1.125, where a separate multiply
  // and subtract would round differently from the one fused update.
  const index_t sizes[] = {1, 5, 33, 77, 100, 130};
  const index_t depths[] = {1, 33, 300, 513};
  const float extra_scales[] = {1.0f, 0.375f};  // times 3 on the B side
  std::uint64_t seed = 900;
  for (std::size_t mi = 0; mi < std::size(sizes); ++mi) {
    const index_t m = sizes[mi];
    for (std::size_t ni = 0; ni < std::size(sizes); ++ni) {
      const index_t n = sizes[ni];
      const index_t k = depths[(mi + ni) % std::size(depths)];
      const std::string where = " m=" + std::to_string(m) +
                                " n=" + std::to_string(n) +
                                " k=" + std::to_string(k);
      {
        const auto a = random_vec<double>(m * k, ++seed);
        const auto b = random_vec<double>(n * k, ++seed);
        auto got = random_vec<double>(m * n, ++seed);
        auto want = got;
        gemm_nt_minus_f64(a.data(), b.data(), got.data(), m, n, k);
        gemm_nt_minus_loop_f64(a.data(), b.data(), want.data(), m, n, k);
        EXPECT_TRUE(same_bytes(got, want)) << "gemm f64" << where;
      }
      {
        const auto a = random_vec<float>(m * k, ++seed);
        const auto b = random_vec<float>(n * k, ++seed);
        auto got = random_vec<float>(m * n, ++seed);
        auto want = got;
        gemm_nt_minus_f32(a.data(), b.data(), got.data(), m, n, k);
        gemm_nt_minus_loop_f32(a.data(), b.data(), want.data(), m, n, k);
        EXPECT_TRUE(same_bytes(got, want)) << "gemm f32" << where;
      }
      {
        const HalfTile a = random_half_tile(m * k, ++seed);
        const HalfTile b = random_half_tile(n * k, ++seed);
        for (const float x : extra_scales) {
          const float sb = x == 1.0f ? b.scale : 3.0f * b.scale;
          auto got = random_vec<float>(m * n, ++seed);
          auto want = got;
          gemm_nt_minus_f16(a.h.data(), x * a.scale, b.h.data(), sb,
                            got.data(), m, n, k);
          gemm_nt_minus_loop_f16(a.h.data(), x * a.scale, b.h.data(), sb,
                                 want.data(), m, n, k);
          EXPECT_TRUE(same_bytes(got, want)) << "gemm f16 x=" << x << where;
        }
      }
      // TRSM: n is the order of the triangle.
      {
        auto l = spd_tile<double>(n);
        potrf_lower_ref_f64(l.data(), n);
        auto got = random_vec<double>(m * n, ++seed);
        auto want = got;
        trsm_rlt_f64(l.data(), got.data(), m, n);
        trsm_rlt_loop_f64(l.data(), want.data(), m, n);
        EXPECT_TRUE(same_bytes(got, want)) << "trsm f64" << where;
      }
      {
        auto l = spd_tile<float>(n);
        potrf_lower_ref_f32(l.data(), n);
        auto got = random_vec<float>(m * n, ++seed);
        auto want = got;
        trsm_rlt_f32(l.data(), got.data(), m, n);
        trsm_rlt_loop_f32(l.data(), want.data(), m, n);
        EXPECT_TRUE(same_bytes(got, want)) << "trsm f32" << where;
        const HalfTile b = random_half_tile(m * n, ++seed);
        for (const float x : extra_scales) {
          std::vector<float> got16(static_cast<std::size_t>(m * n));
          std::vector<float> want16(got16.size());
          trsm_rlt_f16(l.data(), b.h.data(), x * b.scale, got16.data(), m, n);
          trsm_rlt_loop_f16(l.data(), b.h.data(), x * b.scale, want16.data(),
                            m, n);
          EXPECT_TRUE(same_bytes(got16, want16)) << "trsm f16 x=" << x << where;
        }
      }
    }
    for (const index_t k : depths) {
      const std::string where =
          " m=" + std::to_string(m) + " k=" + std::to_string(k);
      {
        const auto a = random_vec<double>(m * k, ++seed);
        auto got = random_vec<double>(m * m, ++seed);
        auto want = got;
        syrk_ln_minus_f64(a.data(), got.data(), m, k);
        syrk_ln_minus_loop_f64(a.data(), want.data(), m, k);
        EXPECT_TRUE(same_bytes(got, want)) << "syrk f64" << where;
      }
      {
        const auto a = random_vec<float>(m * k, ++seed);
        auto got = random_vec<float>(m * m, ++seed);
        auto want = got;
        syrk_ln_minus_f32(a.data(), got.data(), m, k);
        syrk_ln_minus_loop_f32(a.data(), want.data(), m, k);
        EXPECT_TRUE(same_bytes(got, want)) << "syrk f32" << where;
      }
      const HalfTile a = random_half_tile(m * k, ++seed);
      for (const float x : extra_scales) {
        auto got = random_vec<float>(m * m, ++seed);
        auto want = got;
        syrk_ln_minus_f16(a.h.data(), x * a.scale, got.data(), m, k);
        syrk_ln_minus_loop_f16(a.h.data(), x * a.scale, want.data(), m, k);
        EXPECT_TRUE(same_bytes(got, want)) << "syrk f16 x=" << x << where;
      }
    }
  }
  // A triangle past KC + NB, so the TRSM panel updates reach a second k
  // panel, and factorizations whose recursion runs every kernel.
  for (const index_t m : {5, 77}) {
    const index_t n = 333;
    auto l = spd_tile<double>(n);
    potrf_lower_ref_f64(l.data(), n);
    auto got = random_vec<double>(m * n, ++seed);
    auto want = got;
    trsm_rlt_f64(l.data(), got.data(), m, n);
    trsm_rlt_loop_f64(l.data(), want.data(), m, n);
    EXPECT_TRUE(same_bytes(got, want)) << "trsm f64 m=" << m << " n=" << n;
  }
  for (const index_t n : {1, 5, 33, 77, 100, 130, 300}) {
    auto got = spd_tile<double>(n);
    auto want = got;
    potrf_lower_f64(got.data(), n);
    potrf_lower_loop_f64(want.data(), n);
    EXPECT_TRUE(same_bytes(got, want)) << "potrf f64 n=" << n;
    auto got32 = spd_tile<float>(n);
    auto want32 = got32;
    potrf_lower_f32(got32.data(), n);
    potrf_lower_loop_f32(want32.data(), n);
    EXPECT_TRUE(same_bytes(got32, want32)) << "potrf f32 n=" << n;
  }
}

TEST(KernelsBlocked, CovarianceMatchesRefBytes) {
  // Pipebench's train-daily and emulate shapes, then sizes that leave
  // partial 8-row and 16-column blocks, down to a single entry.
  const std::pair<index_t, index_t> shapes[] = {
      {1086, 784}, {506, 1024}, {301, 257}, {50, 37}, {7, 9}, {1, 1}};
  for (const auto& [n, d] : shapes) {
    linalg::Matrix samples(n, d);
    common::Rng rng(static_cast<std::uint64_t>(n * 7919 + d));
    for (index_t i = 0; i < n * d; ++i) samples.data()[i] = rng.normal();
    const linalg::Matrix want = stats::empirical_covariance_ref(samples);
    for (const unsigned threads : {1u, 4u}) {
      const linalg::Matrix got =
          stats::empirical_covariance_parallel(samples, threads);
      ASSERT_EQ(got.rows(), d);
      ASSERT_EQ(got.cols(), d);
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            static_cast<std::size_t>(d * d) * sizeof(double)),
                0)
          << "n=" << n << " d=" << d << " threads=" << threads;
    }
  }
}

/// One synthetic ESM and the trend configuration fitted to it.
struct TrendCase {
  sht::GridShape grid;
  index_t steps_per_year;
  index_t years;
  index_t ensembles;
  index_t harmonics;
  std::vector<double> rho_grid;  // empty: the default 20-point profile
};

TEST(KernelsBlocked, TrendFitMatchesRefBytes) {
  const TrendCase cases[] = {
      {{29, 60}, 365, 1, 3, 5, {}},  // pipebench train-daily
      {{33, 64}, 64, 4, 2, 5, {}},   // pipebench emulate/serve model
      {{17, 32}, 48, 3, 2, 5, {}},
      {{17, 32}, 64, 2, 1, 5, {}},  // R = 1
      {{9, 16}, 32, 2, 5, 3, {}},   // R = 5: a full 4-wide chunk of the SSE
      {{17, 32}, 64, 2, 2, 0, {}},  // K = 0
      {{17, 32}, 64, 2, 2, 5, {0.35}},  // a one-rho custom grid
  };
  for (const TrendCase& c : cases) {
    climate::SyntheticEsmConfig esm_cfg;
    esm_cfg.band_limit = 8;
    esm_cfg.grid = c.grid;
    esm_cfg.num_years = c.years;
    esm_cfg.steps_per_year = c.steps_per_year;
    esm_cfg.num_ensembles = c.ensembles;
    const climate::SyntheticEsm esm = climate::generate_synthetic_esm(esm_cfg);
    stats::TrendFitConfig cfg;
    cfg.harmonics = c.harmonics;
    cfg.period = c.steps_per_year;
    cfg.rho_grid = c.rho_grid;
    const index_t points = c.grid.num_points();
    const index_t R = c.ensembles;
    const index_t T = c.years * c.steps_per_year;

    std::vector<stats::TrendModel> want(static_cast<std::size_t>(points));
    common::parallel_for(0, points, [&](index_t p) {
      std::vector<double> y(static_cast<std::size_t>(R * T));
      for (index_t rt = 0; rt < R * T; ++rt) {
        y[static_cast<std::size_t>(rt)] =
            esm.data.raw()[static_cast<std::size_t>(rt * points + p)];
      }
      want[static_cast<std::size_t>(p)] =
          stats::fit_trend_ref(y, R, T, esm.forcing, cfg);
    });
    for (const unsigned threads : {1u, 4u}) {
      const std::vector<stats::TrendModel> got = stats::fit_trends(
          esm.data.raw(), points, R, T, esm.forcing, cfg, threads);
      ASSERT_EQ(got.size(), want.size());
      index_t differing = 0;
      std::string first;
      for (std::size_t p = 0; p < want.size(); ++p) {
        const stats::TrendModel& g = got[p];
        const stats::TrendModel& w = want[p];
        const bool same = same_bytes(g.beta0, w.beta0) &&
                          same_bytes(g.beta1, w.beta1) &&
                          same_bytes(g.beta2, w.beta2) &&
                          same_bytes(g.rho, w.rho) &&
                          same_bytes(g.sigma, w.sigma) &&
                          g.period == w.period &&
                          same_bytes(g.cos_coeff, w.cos_coeff) &&
                          same_bytes(g.sin_coeff, w.sin_coeff);
        if (!same && differing++ == 0) first = std::to_string(p);
      }
      EXPECT_EQ(differing, 0)
          << "grid " << c.grid.nlat << "x" << c.grid.nlon << " tau "
          << c.steps_per_year << " R " << R << " K " << c.harmonics
          << " threads " << threads << ": first differing point " << first;
    }

    // The one-point entry point is the same fit.
    std::vector<double> y0(static_cast<std::size_t>(R * T));
    for (index_t rt = 0; rt < R * T; ++rt) {
      y0[static_cast<std::size_t>(rt)] =
          esm.data.raw()[static_cast<std::size_t>(rt * points)];
    }
    const stats::TrendModel one = stats::fit_trend(y0, R, T, esm.forcing, cfg);
    EXPECT_TRUE(same_bytes(one.beta0, want[0].beta0) &&
                same_bytes(one.rho, want[0].rho) &&
                same_bytes(one.sigma, want[0].sigma) &&
                same_bytes(one.cos_coeff, want[0].cos_coeff));
  }
}

/// m_t with two trig calls per harmonic and step: the evaluation the
/// harmonic table replaced.
std::vector<double> trend_series_trig(const stats::TrendModel& model,
                                      index_t num_steps,
                                      std::span<const double> forcing) {
  const std::vector<double> lagged =
      stats::lagged_forcing(forcing, num_steps, model.period, model.rho);
  std::vector<double> out(static_cast<std::size_t>(num_steps));
  for (index_t t = 1; t <= num_steps; ++t) {
    const index_t year = (t + model.period - 1) / model.period;
    double v = model.beta0 +
               model.beta1 * forcing[static_cast<std::size_t>(year - 1)] +
               model.beta2 * lagged[static_cast<std::size_t>(t - 1)];
    for (std::size_t k = 1; k <= model.cos_coeff.size(); ++k) {
      const double angle = kTwoPi * static_cast<double>(t) *
                           static_cast<double>(k) /
                           static_cast<double>(model.period);
      v += model.cos_coeff[k - 1] * std::cos(angle) +
           model.sin_coeff[k - 1] * std::sin(angle);
    }
    out[static_cast<std::size_t>(t - 1)] = v;
  }
  return out;
}

TEST(KernelsBlocked, TrendSeriesTableMatchesTrigBytes) {
  common::Rng rng(77);
  std::vector<double> forcing(12);
  for (auto& f : forcing) f = rng.normal(1.0, 0.5);
  for (const index_t harmonics : {0, 1, 5, 7}) {
    for (const index_t period : {1, 12, 64, 365}) {
      const index_t steps = std::min<index_t>(12 * period, 1500);
      std::vector<stats::TrendModel> models(9);
      for (std::size_t p = 0; p < models.size(); ++p) {
        stats::TrendModel& m = models[p];
        m.beta0 = rng.normal(280.0, 10.0);
        m.beta1 = rng.normal();
        m.beta2 = rng.normal();
        m.rho = 0.05 * static_cast<double>(p);
        for (index_t k = 0; k < harmonics; ++k) {
          m.cos_coeff.push_back(rng.normal(0.0, 5.0));
          m.sin_coeff.push_back(rng.normal(0.0, 5.0));
        }
        m.period = period;
      }
      models.back().period = period + 1;  // off-table: a per-call table
      for (const unsigned threads : {1u, 4u}) {
        const std::vector<double> all =
            stats::trend_series_all(models, steps, forcing, threads);
        ASSERT_EQ(all.size(), models.size() * static_cast<std::size_t>(steps));
        for (std::size_t p = 0; p < models.size(); ++p) {
          const std::vector<double> want =
              trend_series_trig(models[p], steps, forcing);
          std::vector<double> column(want.size());
          for (std::size_t t = 0; t < column.size(); ++t) {
            column[t] = all[t * models.size() + p];
          }
          EXPECT_TRUE(same_bytes(column, want))
              << "K " << harmonics << " tau " << period << " model " << p;
          EXPECT_TRUE(same_bytes(
              stats::trend_series(models[p], steps, forcing), want));
        }
      }
    }
  }
}

}  // namespace
