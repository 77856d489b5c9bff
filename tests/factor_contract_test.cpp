// The factor contract of the mixed-precision tiled Cholesky (ctest -L
// fidelity). Fixed seeds; every tolerance is derived, none tuned:
//   * backward error: ||A - L~L~^T||_F / ||A||_F <= c n u_low for all four
//     precision variants at tiles 32 and 64, on a sphere-like, a decay-like
//     and an ill-conditioned SPD set, with c from Higham's Theorem 10.3;
//   * no f32 subnormal: after factoring a decay-like matrix whose far tiles
//     fall below f32's normal range (2^-126), no FP32 tile holds a subnormal
//     and every FP16 tile's scale is a normal float, though from_dense
//     flushes nothing;
//   * MXCSR left as found: the FTZ|DAZ scope the low-precision task bodies
//     open (common/fpenv.hpp) restores every team participant's MXCSR after
//     a clean run, a run that fails in an FP32 GEMM and a run that recovers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>
#include <string>
#include <vector>

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

#include "common/fault.hpp"
#include "common/fpenv.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "linalg/kernels.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/failure.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

namespace {

using namespace exaclim;
using linalg::Matrix;
using linalg::Precision;
using linalg::PrecisionVariant;
using linalg::TiledSymmetricMatrix;

constexpr index_t kN = 512;

// --- inputs -----------------------------------------------------------------

/// Exponential kernel (length 0.1) of chordal distance over n seeded points
/// on the unit sphere sorted by z, rows scaled by (1 + sqrt(i))^-1, nugget
/// 1e-4: the covariance shape of a spherical-harmonic emulator's U-hat.
Matrix sphere_like(index_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<std::array<double, 3>> p(static_cast<std::size_t>(n));
  for (auto& q : p) {
    const double z = rng.uniform(-1.0, 1.0);
    const double phi = rng.uniform(0.0, 2.0 * std::numbers::pi);
    const double r = std::sqrt(1.0 - z * z);
    q = {r * std::cos(phi), r * std::sin(phi), z};
  }
  std::sort(p.begin(), p.end(),
            [](const auto& a, const auto& b) { return a[2] < b[2]; });
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    const auto& pi = p[static_cast<std::size_t>(i)];
    const double si = 1.0 / (1.0 + std::sqrt(static_cast<double>(i)));
    for (index_t j = 0; j < n; ++j) {
      const auto& pj = p[static_cast<std::size_t>(j)];
      const double sj = 1.0 / (1.0 + std::sqrt(static_cast<double>(j)));
      const double d = std::sqrt((pi[0] - pj[0]) * (pi[0] - pj[0]) +
                                 (pi[1] - pj[1]) * (pi[1] - pj[1]) +
                                 (pi[2] - pj[2]) * (pi[2] - pj[2]));
      a(i, j) = si * sj * std::exp(-d / 0.1);
    }
    a(i, i) += 1e-4;
  }
  return a;
}

/// 1-D exponential kernel of the given length over seeded jittered
/// positions, plus 1e-3 on the diagonal. At length 4 and n = 512 the
/// entries farther than about 349 positions from the diagonal lie below
/// 2^-126: the subnormal regime of f32.
Matrix decay_like(index_t n, double length, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        static_cast<double>(i) + rng.uniform(-0.4, 0.4);
  }
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(x[static_cast<std::size_t>(i)] -
                                   x[static_cast<std::size_t>(j)]) /
                         length);
    }
    a(i, i) += 1e-3;
  }
  return a;
}

/// Squared-exponential kernel (length 6) over seeded jittered 1-D
/// positions, nugget 1e-6: smooth enough that the spectrum falls to the
/// nugget, so kappa_2 is about 1.5e7.
Matrix ill_conditioned(index_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x[static_cast<std::size_t>(i)] =
        static_cast<double>(i) + rng.uniform(-0.4, 0.4);
  }
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      const double d =
          x[static_cast<std::size_t>(i)] - x[static_cast<std::size_t>(j)];
      a(i, j) = std::exp(-d * d / (2.0 * 6.0 * 6.0));
    }
    a(i, i) += 1e-6;
  }
  return a;
}

enum class Input { Sphere, Decay, IllConditioned };

const char* input_name(Input input) {
  switch (input) {
    case Input::Sphere: return "sphere";
    case Input::Decay: return "decay";
    case Input::IllConditioned: return "ill";
  }
  return "?";
}

Matrix make_input(Input input) {
  switch (input) {
    case Input::Sphere: return sphere_like(kN, 11);
    case Input::Decay: return decay_like(kN, 4.0, 12);
    case Input::IllConditioned: return ill_conditioned(kN, 13);
  }
  return Matrix(kN, kN);
}

TiledSymmetricMatrix tiled(const Matrix& a, index_t nb, PrecisionVariant v) {
  const index_t nt = (a.rows() + nb - 1) / nb;
  return TiledSymmetricMatrix::from_dense(a, nb,
                                          linalg::make_band_policy(nt, v));
}

// --- the backward-error contract ----------------------------------------------

/// Unit roundoff of the lowest tile precision of `v`: binary64, binary32,
/// or the (scaled) binary16 significand.
double lowest_unit_roundoff(PrecisionVariant v) {
  switch (v) {
    case PrecisionVariant::DP: return std::ldexp(1.0, -53);
    case PrecisionVariant::DP_SP: return std::ldexp(1.0, -24);
    case PrecisionVariant::DP_SP_HP:
    case PrecisionVariant::DP_HP: return std::ldexp(1.0, -11);
  }
  return 1.0;
}

/// c of the contract ||A - L~L~^T||_F / ||A||_F <= c n u, u = u_low.
///
/// Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.),
/// Theorem 10.3: Cholesky that runs to completion in arithmetic of unit
/// roundoff u gives L~L~^T = A + dA with |dA| <= gamma_{n+1} |L~||L~^T|,
/// gamma_k = k u / (1 - k u). The tiled mixed-precision factorization forms
/// the same sums, in other orders, and every rounding that reaches entry
/// (i, j) happens in a task writing (i, j)'s tile or in narrowing an operand
/// to that tile's precision, so each is at most u_low. Beyond the theorem's
/// n + 1, an entry takes one rounding when A is stored in its tile, two
/// when a product's operands are narrowed, one for the TRSM's reciprocal
/// pivot, and up to nt when an FP16 tile is re-rounded after each of its
/// updates: m = n + nt + 5 in all, with gamma_m in place of gamma_{n+1}.
///
/// Normwise: (|L~||L~^T|)_ij <= ||l~_i|| ||l~_j|| (Cauchy-Schwarz over the
/// rows), so || |L~||L~^T| ||_F <= ||L~||_F^2 = trace(A + dA)
/// <= trace(A) + gamma_m ||L~||_F^2, that is ||L~||_F^2 <= trace(A) /
/// (1 - gamma_m). Hence
///   ||dA||_F / ||A||_F <= gamma_m / (1 - gamma_m) * tau
///                       = m u / (1 - 2 m u) * tau,  tau = trace(A)/||A||_F,
/// and c = (m / n) tau / (1 - 2 m u), with 1 <= tau <= sqrt(n).
///
/// Not modelled: absolute errors below every bound here — a value flushed
/// to zero is below 2^-126, and a scaled-FP16 subnormal rounds within
/// 2^-39 of its tile's largest entry.
double contract_c(const Matrix& a, index_t nb, double u) {
  const index_t n = a.rows();
  const index_t nt = (n + nb - 1) / nb;
  const double m = static_cast<double>(n + nt + 5);
  double trace = 0.0;
  double fro2 = 0.0;
  for (index_t i = 0; i < n; ++i) {
    trace += a(i, i);
    for (index_t j = 0; j < n; ++j) fro2 += a(i, j) * a(i, j);
  }
  const double tau = trace / std::sqrt(fro2);
  return (m / static_cast<double>(n)) * tau / (1.0 - 2.0 * m * u);
}

/// ||A - L L^T||_F / ||A||_F for the lower factor `l`, accumulated in long
/// double so that the residual's own rounding stays far below the DP bound.
double backward_error(const Matrix& a, const Matrix& l) {
  const index_t n = a.rows();
  long double res2 = 0.0L;
  long double a2 = 0.0L;
  for (index_t i = 0; i < n; ++i) {
    const double* li = l.data() + i * n;  // row-major
    for (index_t j = 0; j <= i; ++j) {
      const double* lj = l.data() + j * n;
      long double s = 0.0L;
      for (index_t k = 0; k <= j; ++k) {
        s += static_cast<long double>(li[k]) * static_cast<long double>(lj[k]);
      }
      const long double r = static_cast<long double>(a(i, j)) - s;
      const long double w = (i == j) ? 1.0L : 2.0L;  // both triangles
      res2 += w * r * r;
      a2 += w * static_cast<long double>(a(i, j)) * a(i, j);
    }
  }
  return static_cast<double>(std::sqrt(res2 / a2));
}

struct ContractCase {
  Input input;
  index_t nb;
};

class FactorContract : public ::testing::TestWithParam<ContractCase> {};

TEST_P(FactorContract, BackwardErrorWithinHighamBound) {
  const auto [input, nb] = GetParam();
  const Matrix a = make_input(input);
  for (const PrecisionVariant v : linalg::kAllVariants) {
    auto t = tiled(a, nb, v);
    runtime::cholesky_tiled_parallel(t);
    const double err = backward_error(a, t.to_dense(/*lower_only=*/true));
    const double u = lowest_unit_roundoff(v);
    const double c = contract_c(a, nb, u);
    const double bound = c * static_cast<double>(kN) * u;
    EXPECT_TRUE(std::isfinite(err)) << linalg::variant_name(v);
    EXPECT_LE(err, bound) << input_name(input) << " nb=" << nb << " "
                          << linalg::variant_name(v) << " c=" << c;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Inputs, FactorContract,
    ::testing::Values(ContractCase{Input::Sphere, 32},
                      ContractCase{Input::Sphere, 64},
                      ContractCase{Input::Decay, 32},
                      ContractCase{Input::Decay, 64},
                      ContractCase{Input::IllConditioned, 32},
                      ContractCase{Input::IllConditioned, 64}),
    [](const ::testing::TestParamInfo<ContractCase>& info) {
      return std::string(input_name(info.param.input)) + "_nb" +
             std::to_string(info.param.nb);
    });

// --- no f32 subnormal in a factor ---------------------------------------------

/// Subnormal entries over the FP32 tiles of `t`.
index_t f32_subnormals(const TiledSymmetricMatrix& t) {
  index_t count = 0;
  for (index_t i = 0; i < t.num_tile_rows(); ++i) {
    for (index_t j = 0; j <= i; ++j) {
      const linalg::TileBuffer& tile = t.tile(i, j);
      if (tile.precision() != Precision::FP32) continue;
      for (index_t e = 0; e < tile.count(); ++e) {
        if (std::fpclassify(tile.f32()[e]) == FP_SUBNORMAL) ++count;
      }
    }
  }
  return count;
}

TEST(FactorSubnormals, NoF32SubnormalSurvivesTheFactorization) {
  const Matrix a = decay_like(kN, 4.0, 12);
  for (const index_t nb : {index_t{32}, index_t{64}}) {
    // The regime is real: from_dense narrows the far entries to f32
    // subnormals and leaves them there.
    EXPECT_GT(f32_subnormals(tiled(a, nb, PrecisionVariant::DP_SP)), 0)
        << nb;
    for (const PrecisionVariant v :
         {PrecisionVariant::DP_SP, PrecisionVariant::DP_SP_HP,
          PrecisionVariant::DP_HP}) {
      for (const auto placement : {linalg::ConversionPlacement::Sender,
                                   linalg::ConversionPlacement::Receiver}) {
        auto t = tiled(a, nb, v);
        runtime::RtCholeskyOptions opt;
        opt.placement = placement;
        runtime::cholesky_tiled_parallel(t, opt);
        // Every off-diagonal tile's final value is written by a
        // flush-to-zero TRSM, so no subnormal is left to flush.
        EXPECT_EQ(f32_subnormals(t), 0)
            << linalg::variant_name(v) << " nb=" << nb;
        for (index_t i = 0; i < t.num_tile_rows(); ++i) {
          for (index_t j = 0; j <= i; ++j) {
            const linalg::TileBuffer& tile = t.tile(i, j);
            if (tile.precision() != Precision::FP16) continue;
            EXPECT_TRUE(std::isnormal(tile.scale()))
                << linalg::variant_name(v) << " tile " << i << "," << j
                << " scale " << tile.scale();
          }
        }
      }
    }
  }
}

// --- MXCSR left as found --------------------------------------------------------

#if defined(__SSE__)

/// MXCSR control and mask bits (6-15). The status flags (bits 0-5) are
/// sticky records of past arithmetic, not mode, so they are left out.
unsigned csr_mode(unsigned csr) { return csr & ~0x3Fu; }

/// csr_mode of every team participant, by rank.
std::vector<unsigned> team_modes() {
  auto& team = common::WorkerTeam::instance();
  std::vector<unsigned> modes(team.max_participants(), ~0u);
  team.run(
      team.max_participants(),
      [](void* ctx, unsigned rank) {
        (*static_cast<std::vector<unsigned>*>(ctx))[rank] =
            csr_mode(_mm_getcsr());
      },
      &modes);
  return modes;
}

/// Disarms the global injector when a test exits, pass or fail.
struct InjectorGuard {
  ~InjectorGuard() { common::FaultInjector::instance().disarm(); }
};

/// -(a * b) through the out-of-line f32 GEMM kernel on 1 x 1 tiles.
float kernel_product(float a, float b) {
  float c = 0.0f;
  linalg::gemm_nt_minus_f32(&a, &b, &c, 1, 1, 1);
  return c;
}

TEST(FlushDenormalsScope, SetsFtzDazInsideAndRestoresOnExit) {
  const unsigned before = _mm_getcsr();
  ASSERT_EQ(before & common::kMxcsrFtzDaz, 0u);
  const float tiny = std::ldexp(1.0f, -64);
  const float sub = std::ldexp(1.0f, -130);
  ASSERT_EQ(std::fpclassify(kernel_product(tiny, tiny)), FP_SUBNORMAL);
  {
    const common::FlushDenormalsScope ftz(true);
    EXPECT_EQ(_mm_getcsr() & common::kMxcsrFtzDaz, common::kMxcsrFtzDaz);
    EXPECT_EQ(kernel_product(tiny, tiny), 0.0f);  // FTZ: tiny result
    EXPECT_EQ(kernel_product(sub, 1.0f), 0.0f);   // DAZ: subnormal input
  }
  EXPECT_EQ(csr_mode(_mm_getcsr()), csr_mode(before));
  {
    const common::FlushDenormalsScope off(false);
    EXPECT_EQ(csr_mode(_mm_getcsr()), csr_mode(before));
  }
}

TEST(FlushDenormalsScope, RestoresWhenTheScopeThrowsOnEveryParticipant) {
  // A throw from inside the scope unwinds through its destructor, on the
  // caller and on every team worker.
  const std::vector<unsigned> before = team_modes();
  auto& team = common::WorkerTeam::instance();
  std::vector<int> caught(team.max_participants(), 0);
  team.run(
      team.max_participants(),
      [](void* ctx, unsigned rank) {
        try {
          const common::FlushDenormalsScope ftz(true);
          throw std::runtime_error("inside the scope");
        } catch (const std::runtime_error&) {
          (*static_cast<std::vector<int>*>(ctx))[rank] = 1;
        }
      },
      &caught);
  EXPECT_EQ(caught, std::vector<int>(caught.size(), 1));
  EXPECT_EQ(team_modes(), before);
}

TEST(FactorMxcsr, CleanRunLeavesEveryParticipantAsFound) {
  const std::vector<unsigned> before = team_modes();
  for (const unsigned mode : before) {
    EXPECT_EQ(mode & common::kMxcsrFtzDaz, 0u);
  }
  auto t = tiled(decay_like(kN, 4.0, 12), 32, PrecisionVariant::DP_SP_HP);
  runtime::cholesky_tiled_parallel(t);
  EXPECT_EQ(team_modes(), before);
}

TEST(FactorMxcsr, RunFailingInAnFp32GemmLeavesEveryParticipantAsFound) {
  // At n = 512, tile 32, DP/SP/HP stores the tiles two off the diagonal in
  // FP32; the injector throws a NumericalError on GEMM(5,3,k)'s first
  // attempt, at the entry of that FP32 body, while other workers are inside
  // theirs. The throw from inside a scope is pinned above.
  const std::vector<unsigned> before = team_modes();
  InjectorGuard guard;
  common::FaultInjector::instance().arm(
      common::FaultPlan::parse("seed=5;numerical=1;kind=GEMM;at=5,3"));
  auto t = tiled(decay_like(kN, 4.0, 12), 32, PrecisionVariant::DP_SP_HP);
  ASSERT_EQ(t.tile(5, 3).precision(), Precision::FP32);
  try {
    runtime::cholesky_tiled_parallel(t);
    FAIL() << "expected a TaskFailure from GEMM(5,3,k)";
  } catch (const runtime::TaskFailure& e) {
    EXPECT_EQ(e.kind(), "GEMM");
    EXPECT_EQ(e.row(), 5);
    EXPECT_EQ(e.col(), 3);
  }
  EXPECT_GT(common::FaultInjector::instance().counts().numerical, 0);
  EXPECT_EQ(team_modes(), before);
}

TEST(FactorMxcsr, RecoveringRunsLeaveEveryParticipantAsFound) {
  const std::vector<unsigned> before = team_modes();
  const Matrix a = decay_like(kN, 4.0, 12);
  {
    // Every POTRF fails once and its recover hook climbs the jitter
    // ladder, outside any scope.
    InjectorGuard guard;
    common::FaultInjector::instance().arm(
        common::FaultPlan::parse("seed=5;numerical=1;kind=POTRF"));
    auto t = tiled(a, 32, PrecisionVariant::DP_SP_HP);
    runtime::RtCholeskyOptions opt;
    opt.ft.enabled = true;
    const auto result = runtime::cholesky_tiled_parallel(t, opt);
    EXPECT_GT(result.jitter_escalations, 0);
  }
  EXPECT_EQ(team_modes(), before);
  {
    // Transient failures retry the FP32 GEMMs of tile (5,3) in place.
    InjectorGuard guard;
    common::FaultInjector::instance().arm(common::FaultPlan::parse(
        "seed=5;transient=1;repeats=2;kind=GEMM;at=5,3"));
    auto t = tiled(a, 32, PrecisionVariant::DP_SP_HP);
    const auto result = runtime::cholesky_tiled_parallel(t);
    EXPECT_GT(result.run.counters.transient_retries, 0);
  }
  EXPECT_EQ(team_modes(), before);
}

#endif  // __SSE__

}  // namespace
