// PLASMA-style tile layout for symmetric matrices with per-tile precision.
//
// The covariance matrix U-hat of the emulator (Eq. 9) is symmetric positive
// definite with correlation strength decaying away from the diagonal; the
// paper exploits this by storing far-off-diagonal tiles in lower precision.
// TiledSymmetricMatrix stores only the lower triangle of tiles; each tile
// owns a byte buffer whose element type is given by its Precision tag
// (exactly PaRSEC's "tiles of varied precision need different storage").
#pragma once

#include <vector>

#include "common/half.hpp"
#include "common/memory.hpp"
#include "common/types.hpp"
#include "linalg/kernels.hpp"
#include "linalg/matrix.hpp"

namespace exaclim::linalg {

/// Per-tile precision assignment for the lower triangle of an nt x nt tile
/// grid; produced by the policies in precision_policy.hpp.
struct PrecisionMap {
  index_t nt = 0;
  std::vector<Precision> tiles;  // packed lower triangle, idx = i*(i+1)/2 + j
  std::string name;              // e.g. "DP/HP"

  Precision at(index_t i, index_t j) const {
    return tiles[static_cast<std::size_t>(i * (i + 1) / 2 + j)];
  }
  Precision& at(index_t i, index_t j) {
    return tiles[static_cast<std::size_t>(i * (i + 1) / 2 + j)];
  }

  /// Fraction of lower-triangle tiles held at precision p.
  double fraction(Precision p) const;

  /// Total bytes for tile storage of an n x n matrix with tile size nb.
  double storage_bytes(index_t n, index_t nb) const;
};

/// A single tile: owning buffer + precision tag. FP16 tiles are stored as
/// packed binary16 with one per-tile power-of-two scale chosen at load time
/// (max-abs normalization: true value = float(f16()[i]) * scale()). This is
/// the compute-path mirror of FactorStorage::FP16Scaled and keeps tile
/// entries of any magnitude finite — an unscaled f16 load saturates to
/// +-inf past 65504.
class TileBuffer {
 public:
  TileBuffer() = default;
  TileBuffer(Precision p, index_t rows, index_t cols);

  Precision precision() const { return prec_; }
  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t count() const { return rows_ * cols_; }

  double* f64();
  const double* f64() const;
  float* f32();
  const float* f32() const;
  common::half* f16();
  const common::half* f16() const;

  /// Scale factor of an FP16 tile's packed halves (1.0 for FP64/FP32 tiles
  /// and for freshly constructed FP16 tiles). Refreshed by every lossy load.
  float scale() const { return scale_; }

  /// Loads from a double source (rounding into the tile's precision; FP16
  /// tiles pick a fresh max-abs scale).
  void load_f64(const double* src);
  /// Stores to a double destination (widening from the tile's precision and
  /// re-applying the scale).
  void store_f64(double* dst) const;
  /// Copies this tile's true values into a float scratch buffer (count()).
  void to_f32(float* dst) const;
  /// Overwrites this tile from a float scratch buffer (FP16 tiles pick a
  /// fresh max-abs scale).
  void from_f32(const float* src);

  /// Raw storage access, for integrity checksums and checkpoint payloads.
  /// The bytes are the packed representation in the tile's precision (plus
  /// scale() for FP16 tiles, persisted separately).
  const std::byte* raw_bytes() const { return bytes_.data(); }
  std::byte* raw_bytes() { return bytes_.data(); }
  std::size_t raw_size() const { return bytes_.size(); }

  /// Restores a persisted FP16 scale alongside raw payload bytes. Only
  /// meaningful when the payload was captured from a tile of the same
  /// precision; no-op semantics for FP64/FP32 tiles (their scale is 1).
  void set_scale(float s) { scale_ = s; }

  /// Converts the tile's storage precision in place, widening or rounding
  /// the current values through double. Used by the POTRF escalation ladder
  /// (f16 -> f32 -> f64) when a tile turns out numerically too hard for its
  /// assigned precision.
  void convert_to(Precision p);

 private:
  Precision prec_ = Precision::FP64;
  index_t rows_ = 0;
  index_t cols_ = 0;
  float scale_ = 1.0f;
  /// Budget accounting for bytes_ (charged before allocation; copies charge
  /// again, moves transfer). Exhaustion throws ResourceError at the
  /// construction/conversion site instead of bad_alloc mid-DAG.
  common::ScopedCharge charge_;
  std::vector<std::byte> bytes_;
};

/// Symmetric matrix stored as lower-triangle tiles of mixed precision.
class TiledSymmetricMatrix {
 public:
  /// Builds zero-initialized storage for an n x n matrix with tile size nb
  /// and the given per-tile precision map (map.nt must equal ceil(n/nb)).
  TiledSymmetricMatrix(index_t n, index_t nb, PrecisionMap map);

  /// Fills tiles from a dense symmetric matrix (values are rounded into each
  /// tile's storage precision — this is the "lossy load" the paper's accuracy
  /// study quantifies).
  static TiledSymmetricMatrix from_dense(const Matrix& a, index_t nb,
                                         PrecisionMap map);

  /// The lower triangle in double precision, row by row (row i holds its
  /// i + 1 entries): the PackedStorage::F64 layout of a trained factor. No
  /// dense n x n is made.
  std::vector<double> to_packed_lower() const;

  /// The dense matrix in double precision: to_packed_lower() with the
  /// strictly-upper part zero if `lower_only` (after factorization, where
  /// tiles hold the lower Cholesky factor), else the mirror of the lower.
  Matrix to_dense(bool lower_only = false) const;

  index_t dim() const { return n_; }
  index_t tile_size() const { return nb_; }
  index_t num_tile_rows() const { return nt_; }
  /// Number of rows in tile-row i (ragged last tile).
  index_t tile_rows(index_t i) const;

  TileBuffer& tile(index_t i, index_t j);
  const TileBuffer& tile(index_t i, index_t j) const;

  const PrecisionMap& precision_map() const { return map_; }

  /// Total bytes held by tile buffers.
  double storage_bytes() const;

  /// Off-diagonal tiles narrowed to scaled FP16 at construction because
  /// their mapped precision did not fit the memory budget (ladder rung 3).
  index_t tiles_degraded_for_memory() const { return degraded_for_memory_; }

 private:
  index_t n_ = 0;
  index_t nb_ = 0;
  index_t nt_ = 0;
  PrecisionMap map_;
  std::vector<TileBuffer> tiles_;  // packed lower triangle
  index_t degraded_for_memory_ = 0;
};

}  // namespace exaclim::linalg
