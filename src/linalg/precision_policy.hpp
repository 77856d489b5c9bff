// Precision-assignment policies for the tiled Cholesky.
//
// The paper evaluates four variants (Section IV-B):
//   DP        — every tile fp64 (reference);
//   DP/SP     — a band of tiles around the diagonal in fp64, rest fp32;
//   DP/SP/HP  — fp64 band, the next ~5% of tiles fp32, rest fp16;
//   DP/HP     — fp64 band, rest fp16.
// plus the tile-centric adaptive policy of [47], which picks each tile's
// precision from its norm relative to the matrix norm (strong correlation ->
// high precision).
//
// Both policies may assign FP16 to tiles regardless of magnitude: FP16 tile
// storage is per-tile max-abs scaled (see TileBuffer), so a covariance
// matrix with entries far beyond the binary16 range of +-65504 still
// factorizes to a finite factor — the policies need no magnitude guard of
// their own. The practical ceiling is the f32 accumulate of the HP update
// path (entries up to ~1e38); the per-tile scale itself is clamped to the
// normal-float range, saturating only beyond ~5e42. The floor is f32's
// normal range: FP32 and FP16 tasks flush values below 2^-126 to zero
// (common/fpenv.hpp).
#pragma once

#include <string>

#include "linalg/tile_matrix.hpp"

namespace exaclim::linalg {

/// The four paper variants.
enum class PrecisionVariant { DP, DP_SP, DP_SP_HP, DP_HP };

/// Paper-style variant name, e.g. "DP/SP/HP".
std::string variant_name(PrecisionVariant v);

/// All four variants in the order the paper plots them.
inline constexpr PrecisionVariant kAllVariants[] = {
    PrecisionVariant::DP, PrecisionVariant::DP_SP, PrecisionVariant::DP_SP_HP,
    PrecisionVariant::DP_HP};

/// Band-based policy: tiles with band distance |i-j| <= dp_band keep fp64
/// ("a single band as DP" in the paper = dp_band 1); for DP_SP_HP the tiles
/// in the next band(s) are fp32 such that about sp_fraction of all tiles are
/// fp32; everything farther is the variant's low precision.
PrecisionMap make_band_policy(index_t nt, PrecisionVariant v,
                              index_t dp_band = 1, double sp_fraction = 0.05);

/// Tile-centric adaptive policy [47]: a tile whose Frobenius norm (relative
/// to the largest tile norm) is below hp_threshold is stored fp16, below
/// sp_threshold fp32, else fp64. Diagonal tiles always stay fp64 so POTRF is
/// well-conditioned.
PrecisionMap make_tile_centric_policy(const Matrix& a, index_t nb,
                                      double sp_threshold = 1e-2,
                                      double hp_threshold = 1e-4);

/// Parses "DP", "DP/SP", "DP/SP/HP", "DP/HP" (case-sensitive).
PrecisionVariant parse_variant(const std::string& name);

/// Where the tiled Cholesky converts operands between precisions (see
/// runtime/tiled_cholesky_rt.hpp).
enum class ConversionPlacement { Sender, Receiver };

}  // namespace exaclim::linalg
