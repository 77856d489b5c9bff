#include "stats/covariance.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <utility>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "linalg/solve.hpp"

namespace exaclim::stats {

namespace {

// Location of the first (row-major) non-finite entry, or row = -1 if clean.
struct BadEntry {
  index_t row = -1;
  index_t col = -1;
  double value = 0.0;
};

// Deterministic scan of the full matrix for NaN/Inf: chunk-stable reduce
// over rows, keeping the lexicographically first offender so the error
// message is identical at any thread count.
BadEntry first_non_finite(const linalg::Matrix& m, unsigned threads) {
  return common::parallel_reduce(
      0, m.rows(), BadEntry{},
      [&](BadEntry& acc, index_t i) {
        if (acc.row >= 0) return;
        for (index_t j = 0; j < m.cols(); ++j) {
          if (!std::isfinite(m(i, j))) {
            acc = BadEntry{i, j, m(i, j)};
            return;
          }
        }
      },
      [](BadEntry& into, BadEntry&& from) {
        if (into.row < 0) into = from;
      },
      threads);
}

// The register-blocked Eq. 9 kernel (Goto & van de Geijn, ACM TOMS 2008):
// an 8 x 16 block of U-hat stays in registers while the sample index r
// ascends. The samples are first packed into 8-column panels, so per r the
// block reads 64 contiguous bytes of its row panel (8 broadcasts) and of
// each of its two column panels (one vector each), where the scalar loop
// strided a whole sample row per load. Each entry keeps one accumulator
// that starts at 0.0 and takes one multiply-add per sample in ascending r:
// the bytes of empirical_covariance_ref.
constexpr index_t kLanes = 8;  // doubles per vector and per panel row
constexpr index_t kBlockRows = kLanes;
constexpr index_t kBlockCols = 2 * kLanes;

#if defined(__AVX512F__)
/// Eight U-hat columns of one block row. The multiply-add is the fused one
/// the scalar loop contracts to under the same flags.
struct Lanes {
  __m512d v = _mm512_setzero_pd();
  static Lanes load(const double* p) { return {_mm512_load_pd(p)}; }
  void madd(double a, const Lanes& b) {
    v = _mm512_fmadd_pd(_mm512_set1_pd(a), b.v, v);
  }
  void store(double* p) const { _mm512_storeu_pd(p, v); }
};
#else
/// Portable eight-lane form. Without FMA hardware the scalar loop compiles
/// to a multiply then an add, so this must too.
struct Lanes {
  double v[kLanes] = {};
  static Lanes load(const double* p) {
    Lanes out;
    for (index_t j = 0; j < kLanes; ++j) out.v[j] = p[j];
    return out;
  }
  void madd(double a, const Lanes& b) {
    for (index_t j = 0; j < kLanes; ++j) {
#if defined(__FMA__)
      v[j] = std::fma(a, b.v[j], v[j]);
#else
      v[j] += a * b.v[j];
#endif
    }
  }
  void store(double* p) const {
    for (index_t j = 0; j < kLanes; ++j) p[j] = v[j];
  }
};
#endif

/// The samples in 8-column panels: panel c holds columns [8c, 8c + 8) of
/// each sample row, row after row, 64-byte aligned. Columns past d read as
/// zero, and the panel count is even so every 16-column block has two.
struct Panels {
  std::unique_ptr<double[]> buf;
  const double* base = nullptr;  ///< panel 0, 64-byte aligned within buf
  index_t n = 0;
  const double* panel(index_t c) const { return base + c * n * kLanes; }
};

Panels pack_panels(const linalg::Matrix& s, unsigned threads) {
  const index_t n = s.rows();
  const index_t d = s.cols();
  const index_t count = 2 * ((d + kBlockCols - 1) / kBlockCols);
  Panels out{std::make_unique_for_overwrite<double[]>(
                 static_cast<std::size_t>(count * n * kLanes + kLanes)),
             nullptr, n};
  const auto addr = reinterpret_cast<std::uintptr_t>(out.buf.get());
  double* base =
      out.buf.get() + (kLanes - addr / sizeof(double) % kLanes) % kLanes;
  out.base = base;
  common::parallel_for(
      0, count,
      [&](index_t c) {
        const index_t width = std::clamp<index_t>(d - c * kLanes, 0, kLanes);
        double* dst = base + c * n * kLanes;
        for (index_t r = 0; r < n; ++r, dst += kLanes) {
          const double* src = s.data() + r * d + c * kLanes;
          for (index_t j = 0; j < width; ++j) dst[j] = src[j];
          for (index_t j = width; j < kLanes; ++j) dst[j] = 0.0;
        }
      },
      threads);
  return out;
}

/// out[i][j] = sum over r of the products of column i of row panel `rows`
/// and column j of column panels `cols` and `cols + n * 8`.
void covariance_block(const double* rows, const double* cols, index_t n,
                      double (&out)[kBlockRows][kBlockCols]) {
  const double* cols_hi = cols + n * kLanes;
  Lanes acc[kBlockRows][2];
  for (index_t r = 0; r < n; ++r) {
    const Lanes lo = Lanes::load(cols + r * kLanes);
    const Lanes hi = Lanes::load(cols_hi + r * kLanes);
    const double* a = rows + r * kLanes;
#pragma GCC unroll 8
    for (index_t i = 0; i < kBlockRows; ++i) {
      acc[i][0].madd(a[i], lo);
      acc[i][1].madd(a[i], hi);
    }
  }
  for (index_t i = 0; i < kBlockRows; ++i) {
    acc[i][0].store(out[i]);
    acc[i][1].store(out[i] + kLanes);
  }
}

}  // namespace

linalg::Matrix empirical_covariance(const linalg::Matrix& samples) {
  return empirical_covariance_parallel(samples, 1);
}

linalg::Matrix empirical_covariance_parallel(const linalg::Matrix& samples,
                                             unsigned threads) {
  const index_t n = samples.rows();
  const index_t d = samples.cols();
  EXACLIM_CHECK(n >= 1, "need at least one sample");
  const unsigned team =
      threads == 0 ? common::default_thread_count() : threads;
  linalg::Matrix u(d, d);
  const double inv_n = 1.0 / static_cast<double>(n);
  const Panels panels = pack_panels(samples, team);
  // Lower-triangle (row block, column block) pairs, column-block major so a
  // worker's consecutive blocks share their column panels.
  std::vector<std::pair<index_t, index_t>> blocks;
  for (index_t j0 = 0; j0 < d; j0 += kBlockCols) {
    for (index_t i0 = j0; i0 < d; i0 += kBlockRows) blocks.emplace_back(i0, j0);
  }
  common::parallel_for(
      0, static_cast<index_t>(blocks.size()),
      [&](index_t k) {
        const auto [i0, j0] = blocks[static_cast<std::size_t>(k)];
        double block[kBlockRows][kBlockCols] = {};
        covariance_block(panels.panel(i0 / kLanes), panels.panel(j0 / kLanes),
                         n, block);
        for (index_t a = i0; a < std::min(i0 + kBlockRows, d); ++a) {
          for (index_t b = j0; b < std::min(j0 + kBlockCols, a + 1); ++b) {
            u(a, b) = block[a - i0][b - j0] * inv_n;
            u(b, a) = u(a, b);
          }
        }
      },
      team);
  return u;
}

linalg::Matrix empirical_covariance_ref(const linalg::Matrix& samples,
                                        unsigned threads) {
  const index_t n = samples.rows();
  const index_t d = samples.cols();
  EXACLIM_CHECK(n >= 1, "need at least one sample");
  linalg::Matrix u(d, d);
  const double inv_n = 1.0 / static_cast<double>(n);
  common::parallel_for(
      0, d,
      [&](index_t a) {
        for (index_t b = 0; b <= a; ++b) {
          double acc = 0.0;
          for (index_t r = 0; r < n; ++r) {
            acc += samples(r, a) * samples(r, b);
          }
          u(a, b) = acc * inv_n;
          u(b, a) = u(a, b);
        }
      },
      threads == 0 ? common::default_thread_count() : threads);
  return u;
}

PreparedCovariance prepare_covariance(const linalg::Matrix& samples,
                                      unsigned threads) {
  const unsigned team =
      threads == 0 ? common::default_thread_count() : threads;
  PreparedCovariance out;
  out.u = empirical_covariance_parallel(samples, team);
  out.was_deficient = samples.rows() < samples.cols();

  // SPD pre-checks before any tile is built: fail here with coordinates, not
  // three levels down in a POTRF task.
  const BadEntry bad = first_non_finite(out.u, team);
  if (bad.row >= 0) {
    std::ostringstream os;
    os << "empirical covariance has non-finite entry " << bad.value << " at ("
       << bad.row << ", " << bad.col
       << ") — input contains NaN/Inf or overflowed; validate the dataset";
    throw NumericalError(os.str());
  }
  struct DiagMin {
    double value = std::numeric_limits<double>::infinity();
    index_t at = -1;
  };
  const DiagMin diag = common::parallel_reduce(
      0, out.u.rows(), DiagMin{},
      [&](DiagMin& acc, index_t i) {
        if (out.u(i, i) < acc.value) acc = DiagMin{out.u(i, i), i};
      },
      [](DiagMin& into, DiagMin&& from) {
        if (from.value < into.value) into = from;
      },
      team);
  if (out.u.rows() > 0 && diag.value <= 0.0) {
    std::ostringstream os;
    os << "empirical covariance diagonal is non-positive: u(" << diag.at
       << ", " << diag.at << ") = " << diag.value
       << " — a variance cannot be <= 0; check for constant or quarantined-"
          "to-death input fields";
    throw NumericalError(os.str());
  }

  // Scale the jitter to the average diagonal so it is "minor" in the paper's
  // sense regardless of the data's units.
  double mean_diag = 0.0;
  for (index_t i = 0; i < out.u.rows(); ++i) mean_diag += out.u(i, i);
  mean_diag /= static_cast<double>(out.u.rows() > 0 ? out.u.rows() : 1);
  out.jitter_unit = 1e-10 * (mean_diag > 0.0 ? mean_diag : 1.0);
  if (out.was_deficient) {
    // Rank-deficient by construction: jitter unconditionally.
    linalg::add_diagonal_jitter(out.u, out.jitter_unit);
    out.jitter = out.jitter_unit;
  }
  return out;
}

}  // namespace exaclim::stats
