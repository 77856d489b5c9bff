// Tests for linalg/: dense matrix ops, tile layout, precision policies, and
// the mixed-precision tile Cholesky (the paper's solver).
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/solve.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/failure.hpp"
#include "runtime/tiled_cholesky_rt.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::linalg;

/// SPD test matrix with exponentially decaying off-diagonal correlation —
/// the structure of the emulator's innovation covariance that band-based
/// precision assignment exploits.
Matrix decaying_spd(index_t n, double length_scale = 20.0) {
  Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(static_cast<double>(i - j)) / length_scale);
    }
    a(i, i) += 1e-3;
  }
  return a;
}

// ---------- dense matrix -----------------------------------------------------

TEST(Matrix, BasicAccessAndNorm) {
  Matrix m(2, 3, 1.0);
  m(1, 2) = 5.0;
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_NEAR(m.frobenius_norm(), std::sqrt(5.0 + 25.0), 1e-12);
}

TEST(Matrix, DimensionsThatOverflowThrowBeforeAllocating) {
  // 2^62 x 2^62 doubles once wrapped to an empty matrix whose indexing
  // reached any address; 2^30 x 2^30 fits a size_t but not PTRDIFF_MAX
  // bytes. Both throw before anything is allocated.
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  EXPECT_THROW((void)Matrix(index_t{1} << 62, index_t{1} << 62),
               InvalidArgument);
  EXPECT_THROW((void)Matrix(index_t{1} << 30, index_t{1} << 30),
               InvalidArgument);
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  EXPECT_LT(after.ru_maxrss - before.ru_maxrss, 1024) << "peak RSS grew (KiB)";
  // A zero extent is no overflow, however wide the other.
  EXPECT_EQ(Matrix(0, index_t{1} << 62).cols(), index_t{1} << 62);
}

TEST(Matrix, UnpackLowerRebuildsTheDenseTriangle) {
  const std::vector<double> packed = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const Matrix l = unpack_lower(packed, 3);
  const double want[3][3] = {{1, 0, 0}, {2, 3, 0}, {4, 5, 6}};
  for (index_t i = 0; i < 3; ++i) {
    for (index_t j = 0; j < 3; ++j) EXPECT_EQ(l(i, j), want[i][j]);
  }
  EXPECT_THROW(unpack_lower(packed, 4), InvalidArgument);
}

TEST(Matrix, TransposeAndIdentity) {
  Matrix m(2, 3);
  m(0, 1) = 7.0;
  const Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t(1, 0), 7.0);
  const Matrix i = Matrix::identity(4);
  EXPECT_EQ(i(2, 2), 1.0);
  EXPECT_EQ(i(2, 3), 0.0);
}

TEST(Matrix, MatmulMatchesHand) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  const Matrix c = matmul(a, a);
  EXPECT_EQ(c(0, 0), 7);
  EXPECT_EQ(c(0, 1), 10);
  EXPECT_EQ(c(1, 0), 15);
  EXPECT_EQ(c(1, 1), 22);
}

TEST(Matrix, MatmulNtAgreesWithExplicitTranspose) {
  common::Rng rng(1);
  Matrix a(4, 6);
  Matrix b(5, 6);
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 6; ++j) a(i, j) = rng.normal();
  }
  for (index_t i = 0; i < 5; ++i) {
    for (index_t j = 0; j < 6; ++j) b(i, j) = rng.normal();
  }
  const Matrix c1 = matmul_nt(a, b);
  const Matrix c2 = matmul(a, b.transposed());
  for (index_t i = 0; i < 4; ++i) {
    for (index_t j = 0; j < 5; ++j) EXPECT_NEAR(c1(i, j), c2(i, j), 1e-12);
  }
}

TEST(Matrix, MatvecMatchesManual) {
  Matrix a(2, 3);
  for (index_t i = 0; i < 2; ++i) {
    for (index_t j = 0; j < 3; ++j) a(i, j) = static_cast<double>(i + j);
  }
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const auto y = matvec(a, x);
  EXPECT_NEAR(y[0], 0 * 1 + 1 * 2 + 2 * 3, 1e-14);
  EXPECT_NEAR(y[1], 1 * 1 + 2 * 2 + 3 * 3, 1e-14);
}

TEST(DenseCholesky, FactorsAndSolves) {
  const index_t n = 40;
  Matrix a = decaying_spd(n);
  Matrix l = a;
  cholesky_dense(l);
  EXPECT_LT(cholesky_residual(a, l), 1e-13);
  // Solve A x = b via forward+backward.
  common::Rng rng(3);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.normal();
  const auto y = forward_substitute(l, b);
  const auto x = backward_substitute(l, y);
  const auto ax = matvec(a, x);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(ax[static_cast<std::size_t>(i)], b[static_cast<std::size_t>(i)],
                1e-9);
  }
}

TEST(DenseCholesky, ThrowsOnIndefinite) {
  Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = a(1, 0) = 2.0;
  a(1, 1) = 1.0;
  EXPECT_THROW(cholesky_dense(a), NumericalError);
}

// ---------- precision policies ------------------------------------------------

TEST(PrecisionPolicy, NamesRoundTrip) {
  for (PrecisionVariant v : kAllVariants) {
    EXPECT_EQ(parse_variant(variant_name(v)), v);
  }
  EXPECT_THROW(parse_variant("FP99"), InvalidArgument);
}

TEST(PrecisionPolicy, DpIsAllDouble) {
  const auto map = make_band_policy(10, PrecisionVariant::DP);
  EXPECT_DOUBLE_EQ(map.fraction(Precision::FP64), 1.0);
}

TEST(PrecisionPolicy, BandStructure) {
  const index_t nt = 12;
  const auto map = make_band_policy(nt, PrecisionVariant::DP_HP, 1);
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      if (i - j <= 1) {
        EXPECT_EQ(map.at(i, j), Precision::FP64);
      } else {
        EXPECT_EQ(map.at(i, j), Precision::FP16);
      }
    }
  }
}

TEST(PrecisionPolicy, DpSpHpHasAboutFivePercentSp) {
  const index_t nt = 64;
  const auto map = make_band_policy(nt, PrecisionVariant::DP_SP_HP, 1, 0.05);
  const double sp = map.fraction(Precision::FP32);
  EXPECT_GE(sp, 0.05);
  EXPECT_LE(sp, 0.12);  // quantized by whole bands
  EXPECT_GT(map.fraction(Precision::FP16), 0.7);
}

TEST(PrecisionPolicy, LowPrecisionFractionGrowsWithTileCount) {
  const auto small = make_band_policy(8, PrecisionVariant::DP_HP);
  const auto large = make_band_policy(64, PrecisionVariant::DP_HP);
  EXPECT_GT(large.fraction(Precision::FP16), small.fraction(Precision::FP16));
}

TEST(PrecisionPolicy, TileCentricTracksNorms) {
  const index_t n = 256;
  const index_t nb = 32;
  Matrix a = decaying_spd(n, 8.0);  // fast decay -> tiny far tiles
  const auto map = make_tile_centric_policy(a, nb, 1e-1, 1e-3);
  // Diagonal stays DP.
  for (index_t i = 0; i < map.nt; ++i) EXPECT_EQ(map.at(i, i), Precision::FP64);
  // Far corner tile has negligible norm -> FP16.
  EXPECT_EQ(map.at(map.nt - 1, 0), Precision::FP16);
  // Storage shrinks vs all-DP.
  const auto dp = make_band_policy(map.nt, PrecisionVariant::DP);
  EXPECT_LT(map.storage_bytes(n, nb), dp.storage_bytes(n, nb));
}

TEST(PrecisionPolicy, StorageBytesMatchHandCount) {
  const index_t nt = 4;
  const index_t nb = 10;
  const auto map = make_band_policy(nt, PrecisionVariant::DP_SP, 0);
  // Diagonal tiles DP (4 * 100 * 8), off-diagonal SP (6 * 100 * 4).
  EXPECT_DOUBLE_EQ(map.storage_bytes(40, nb), 4 * 100 * 8.0 + 6 * 100 * 4.0);
}

// ---------- tile matrix --------------------------------------------------------

TEST(TileMatrix, FromDenseToDenseRoundTripDp) {
  const index_t n = 100;
  Matrix a = decaying_spd(n);
  const auto t = TiledSymmetricMatrix::from_dense(
      a, 32, make_band_policy(4, PrecisionVariant::DP));
  const Matrix back = t.to_dense();
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) EXPECT_DOUBLE_EQ(back(i, j), a(i, j));
  }
}

TEST(TileMatrix, RaggedEdgeTiles) {
  const index_t n = 70;
  const index_t nb = 32;  // 3 tile rows: 32, 32, 6
  const auto map = make_band_policy(3, PrecisionVariant::DP);
  TiledSymmetricMatrix t(n, nb, map);
  EXPECT_EQ(t.num_tile_rows(), 3);
  EXPECT_EQ(t.tile_rows(0), 32);
  EXPECT_EQ(t.tile_rows(2), 6);
  EXPECT_EQ(t.tile(2, 1).rows(), 6);
  EXPECT_EQ(t.tile(2, 1).cols(), 32);
}

TEST(TileMatrix, HpStorageRoundsValues) {
  const index_t n = 64;
  Matrix a = decaying_spd(n);
  const auto t = TiledSymmetricMatrix::from_dense(
      a, 16, make_band_policy(4, PrecisionVariant::DP_HP, 0));
  const Matrix back = t.to_dense();
  // Off-band values went through fp16: close but not identical.
  double max_err = 0.0;
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      max_err = std::max(max_err, std::abs(back(i, j) - a(i, j)));
    }
  }
  EXPECT_GT(max_err, 0.0);
  EXPECT_LT(max_err, 1e-2);
}

TEST(TileMatrix, StorageBytesReflectPrecisions) {
  const index_t n = 128;
  Matrix a = decaying_spd(n);
  const auto dp = TiledSymmetricMatrix::from_dense(
      a, 32, make_band_policy(4, PrecisionVariant::DP));
  const auto hp = TiledSymmetricMatrix::from_dense(
      a, 32, make_band_policy(4, PrecisionVariant::DP_HP));
  EXPECT_LT(hp.storage_bytes(), dp.storage_bytes());
}

TEST(TileMatrix, RejectsUpperTriangleAccess) {
  TiledSymmetricMatrix t(64, 32, make_band_policy(2, PrecisionVariant::DP));
  EXPECT_THROW(t.tile(0, 1), InvalidArgument);
}

TEST(TileMatrix, TypedAccessorsEnforcePrecision) {
  TiledSymmetricMatrix t(64, 32,
                         make_band_policy(2, PrecisionVariant::DP_HP, 0));
  EXPECT_NO_THROW(t.tile(0, 0).f64());
  EXPECT_THROW(t.tile(1, 0).f64(), InvalidArgument);
  EXPECT_NO_THROW(t.tile(1, 0).f16());
}

// ---------- mixed-precision Cholesky -------------------------------------------

struct CholeskyCase {
  index_t n;
  index_t nb;
  PrecisionVariant variant;
  double tolerance;
};

class MixedCholesky : public ::testing::TestWithParam<CholeskyCase> {};

TEST_P(MixedCholesky, ResidualWithinPolicyTolerance) {
  const auto [n, nb, variant, tol] = GetParam();
  Matrix a = decaying_spd(n);
  const index_t nt = (n + nb - 1) / nb;
  auto t =
      TiledSymmetricMatrix::from_dense(a, nb, make_band_policy(nt, variant));
  const runtime::RtCholeskyResult result = runtime::cholesky_tiled_parallel(t);
  EXPECT_LT(cholesky_residual(a, t.to_dense(true)), tol)
      << variant_name(variant) << " n=" << n << " nb=" << nb;
  // Kernel task count: nt POTRF + nt(nt-1)/2 TRSM + nt(nt-1)/2 SYRK +
  // nt(nt-1)(nt-2)/6 GEMM; sender CONVERT tasks come on top.
  EXPECT_EQ(result.total_tasks - result.convert_tasks,
            nt + nt * (nt - 1) + nt * (nt - 1) * (nt - 2) / 6);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MixedCholesky,
    ::testing::Values(
        CholeskyCase{96, 32, PrecisionVariant::DP, 1e-14},
        CholeskyCase{96, 32, PrecisionVariant::DP_SP, 1e-6},
        CholeskyCase{96, 32, PrecisionVariant::DP_HP, 5e-3},
        CholeskyCase{200, 64, PrecisionVariant::DP, 1e-14},
        CholeskyCase{200, 64, PrecisionVariant::DP_SP, 1e-6},
        CholeskyCase{200, 64, PrecisionVariant::DP_SP_HP, 5e-3},
        CholeskyCase{200, 64, PrecisionVariant::DP_HP, 5e-3},
        CholeskyCase{333, 64, PrecisionVariant::DP, 1e-13},   // ragged edge
        CholeskyCase{333, 64, PrecisionVariant::DP_HP, 5e-3},
        CholeskyCase{64, 64, PrecisionVariant::DP, 1e-14}));  // single tile

TEST(MixedCholeskyAccuracy, ResidualOrderingMatchesPaper) {
  // Fig. 4's message: DP < DP/SP < DP/HP in faithfulness. Verify via the
  // factorization residual ordering.
  const index_t n = 256;
  Matrix a = decaying_spd(n);
  double residuals[3];
  int idx = 0;
  for (PrecisionVariant v : {PrecisionVariant::DP, PrecisionVariant::DP_SP,
                             PrecisionVariant::DP_HP}) {
    const Matrix l = runtime::cholesky_mixed_dense(a, 64, v);
    residuals[idx++] = cholesky_residual(a, l);
  }
  EXPECT_LT(residuals[0], residuals[1]);
  EXPECT_LT(residuals[1], residuals[2]);
}

TEST(MixedCholeskyConversions, SenderConvertsLessThanReceiver) {
  const index_t n = 320;
  const index_t nb = 64;
  const index_t nt = (n + nb - 1) / nb;
  Matrix a = decaying_spd(n);
  double conversions[2];
  int idx = 0;
  for (auto placement :
       {ConversionPlacement::Sender, ConversionPlacement::Receiver}) {
    auto t = TiledSymmetricMatrix::from_dense(
        a, nb, make_band_policy(nt, PrecisionVariant::DP_HP));
    runtime::RtCholeskyOptions opt;
    opt.placement = placement;
    conversions[idx++] =
        runtime::cholesky_tiled_parallel(t, opt).element_conversions;
  }
  EXPECT_LT(conversions[0], conversions[1]);
}

TEST(MixedCholeskyConversions, DpVariantConvertsNothing) {
  const index_t n = 128;
  Matrix a = decaying_spd(n);
  auto t = TiledSymmetricMatrix::from_dense(
      a, 32, make_band_policy(4, PrecisionVariant::DP));
  const runtime::RtCholeskyResult result = runtime::cholesky_tiled_parallel(t);
  EXPECT_EQ(result.convert_tasks, 0);
  EXPECT_EQ(result.element_conversions, 0.0);
}

TEST(MixedCholesky, SenderAndReceiverProduceIdenticalFactors) {
  const index_t n = 192;
  const index_t nb = 48;
  Matrix a = decaying_spd(n);
  Matrix factors[2];
  int idx = 0;
  for (auto placement :
       {ConversionPlacement::Sender, ConversionPlacement::Receiver}) {
    auto t = TiledSymmetricMatrix::from_dense(
        a, nb, make_band_policy(4, PrecisionVariant::DP_HP));
    runtime::RtCholeskyOptions opt;
    opt.placement = placement;
    runtime::cholesky_tiled_parallel(t, opt);
    factors[idx++] = t.to_dense(true);
  }
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      EXPECT_EQ(factors[0](i, j), factors[1](i, j)) << i << "," << j;
    }
  }
}

TEST(MixedCholesky, MatchesDenseCholeskyInDp) {
  const index_t n = 150;
  Matrix a = decaying_spd(n);
  const Matrix l_tiled =
      runtime::cholesky_mixed_dense(a, 48, PrecisionVariant::DP);
  Matrix l_dense = a;
  cholesky_dense(l_dense);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      EXPECT_NEAR(l_tiled(i, j), l_dense(i, j), 1e-10);
    }
  }
}

TEST(MixedCholesky, ThrowsOnIndefiniteMatrix) {
  // The runtime surfaces the failed pivot as a structured TaskFailure naming
  // the first diagonal tile, not as a bare NumericalError.
  Matrix a(64, 64);
  for (index_t i = 0; i < 64; ++i) a(i, i) = -1.0;
  try {
    runtime::cholesky_mixed_dense(a, 32, PrecisionVariant::DP);
    FAIL() << "expected TaskFailure";
  } catch (const runtime::TaskFailure& e) {
    EXPECT_EQ(e.kind(), "POTRF");
    EXPECT_EQ(e.row(), 0);
    EXPECT_EQ(e.col(), 0);
  }
}

TEST(MixedCholesky, StatsAccumulateTimings) {
  Matrix a = decaying_spd(256);
  auto t = TiledSymmetricMatrix::from_dense(
      a, 64, make_band_policy(4, PrecisionVariant::DP_HP));
  const runtime::RtCholeskyResult result = runtime::cholesky_tiled_parallel(t);
  EXPECT_GT(result.run.seconds, 0.0);
  EXPECT_GT(result.run.busy_seconds, 0.0);
  EXPECT_EQ(result.run.tasks_executed, result.total_tasks);
}

// ---------- solve helpers --------------------------------------------------------

TEST(Solve, SampleMvnHasTargetCovariance) {
  // 2x2 with correlation 0.8.
  Matrix cov(2, 2);
  cov(0, 0) = 4.0;
  cov(0, 1) = cov(1, 0) = 0.8 * 2.0 * 3.0;
  cov(1, 1) = 9.0;
  Matrix l = cov;
  cholesky_dense(l);
  common::Rng rng(5);
  const int n = 100000;
  double s00 = 0.0;
  double s01 = 0.0;
  double s11 = 0.0;
  for (int i = 0; i < n; ++i) {
    const auto x = sample_mvn(l, rng);
    s00 += x[0] * x[0];
    s01 += x[0] * x[1];
    s11 += x[1] * x[1];
  }
  EXPECT_NEAR(s00 / n, 4.0, 0.1);
  EXPECT_NEAR(s01 / n, 4.8, 0.12);
  EXPECT_NEAR(s11 / n, 9.0, 0.2);
}

TEST(Solve, DiagonalJitterShiftsOnlyTheDiagonal) {
  // One addition per diagonal entry, nothing else touched: the deficiency
  // jitter and the training ladder's rungs both rely on it.
  const Matrix a = decaying_spd(10);
  Matrix b = a;
  add_diagonal_jitter(b, 1e-8);
  for (index_t i = 0; i < 10; ++i) {
    for (index_t j = 0; j < 10; ++j) {
      EXPECT_EQ(b(i, j), i == j ? a(i, j) + 1e-8 : a(i, j)) << i << "," << j;
    }
  }
  Matrix wide(2, 3);
  EXPECT_THROW(add_diagonal_jitter(wide, 1.0), InvalidArgument);
}

}  // namespace
