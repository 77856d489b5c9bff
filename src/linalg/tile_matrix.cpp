#include "linalg/tile_matrix.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace exaclim::linalg {

double PrecisionMap::fraction(Precision p) const {
  if (tiles.empty()) return 0.0;
  std::size_t hits = 0;
  for (Precision t : tiles) {
    if (t == p) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(tiles.size());
}

double PrecisionMap::storage_bytes(index_t n, index_t nb) const {
  EXACLIM_CHECK(nt == (n + nb - 1) / nb, "precision map tile count mismatch");
  double bytes = 0.0;
  for (index_t i = 0; i < nt; ++i) {
    const index_t ri = std::min(nb, n - i * nb);
    for (index_t j = 0; j <= i; ++j) {
      const index_t cj = std::min(nb, n - j * nb);
      bytes += static_cast<double>(ri * cj) *
               static_cast<double>(precision_bytes(at(i, j)));
    }
  }
  return bytes;
}

TileBuffer::TileBuffer(Precision p, index_t rows, index_t cols)
    : prec_(p), rows_(rows), cols_(cols) {
  EXACLIM_CHECK(rows >= 0 && cols >= 0, "tile dimensions must be >= 0");
  const std::size_t bytes =
      static_cast<std::size_t>(rows * cols) * precision_bytes(p);
  charge_ = common::ScopedCharge("tile-matrix", bytes);
  bytes_.assign(bytes, std::byte{0});
}

double* TileBuffer::f64() {
  EXACLIM_CHECK(prec_ == Precision::FP64, "tile is not FP64");
  return reinterpret_cast<double*>(bytes_.data());
}
const double* TileBuffer::f64() const {
  EXACLIM_CHECK(prec_ == Precision::FP64, "tile is not FP64");
  return reinterpret_cast<const double*>(bytes_.data());
}
float* TileBuffer::f32() {
  EXACLIM_CHECK(prec_ == Precision::FP32, "tile is not FP32");
  return reinterpret_cast<float*>(bytes_.data());
}
const float* TileBuffer::f32() const {
  EXACLIM_CHECK(prec_ == Precision::FP32, "tile is not FP32");
  return reinterpret_cast<const float*>(bytes_.data());
}
common::half* TileBuffer::f16() {
  EXACLIM_CHECK(prec_ == Precision::FP16, "tile is not FP16");
  return reinterpret_cast<common::half*>(bytes_.data());
}
const common::half* TileBuffer::f16() const {
  EXACLIM_CHECK(prec_ == Precision::FP16, "tile is not FP16");
  return reinterpret_cast<const common::half*>(bytes_.data());
}

void TileBuffer::load_f64(const double* src) {
  switch (prec_) {
    case Precision::FP64:
      std::memcpy(bytes_.data(), src, static_cast<std::size_t>(count()) * 8);
      break;
    case Precision::FP32:
      convert_f64_to_f32(src, reinterpret_cast<float*>(bytes_.data()), count());
      break;
    case Precision::FP16:
      scale_ = convert_f64_to_f16_scaled(
          src, reinterpret_cast<common::half*>(bytes_.data()), count());
      break;
  }
}

void TileBuffer::store_f64(double* dst) const {
  switch (prec_) {
    case Precision::FP64:
      std::memcpy(dst, bytes_.data(), static_cast<std::size_t>(count()) * 8);
      break;
    case Precision::FP32:
      convert_f32_to_f64(reinterpret_cast<const float*>(bytes_.data()), dst,
                         count());
      break;
    case Precision::FP16:
      convert_f16_scaled_to_f64(
          reinterpret_cast<const common::half*>(bytes_.data()), scale_, dst,
          count());
      break;
  }
}

void TileBuffer::to_f32(float* dst) const {
  switch (prec_) {
    case Precision::FP64:
      convert_f64_to_f32(reinterpret_cast<const double*>(bytes_.data()), dst,
                         count());
      break;
    case Precision::FP32:
      std::memcpy(dst, bytes_.data(), static_cast<std::size_t>(count()) * 4);
      break;
    case Precision::FP16:
      convert_f16_scaled_to_f32(
          reinterpret_cast<const common::half*>(bytes_.data()), scale_, dst,
          count());
      break;
  }
}

void TileBuffer::from_f32(const float* src) {
  switch (prec_) {
    case Precision::FP64:
      convert_f32_to_f64(src, reinterpret_cast<double*>(bytes_.data()), count());
      break;
    case Precision::FP32:
      std::memcpy(bytes_.data(), src, static_cast<std::size_t>(count()) * 4);
      break;
    case Precision::FP16:
      scale_ = convert_f32_to_f16_scaled(
          src, reinterpret_cast<common::half*>(bytes_.data()), count());
      break;
  }
}

void TileBuffer::convert_to(Precision p) {
  if (p == prec_) return;
  std::vector<double> scratch(static_cast<std::size_t>(count()));
  store_f64(scratch.data());
  // Re-charge at the new width before touching the payload: an escalation
  // that would blow the budget fails as ResourceError with the tile intact.
  charge_.rebind("tile-matrix",
                 static_cast<std::size_t>(count()) * precision_bytes(p));
  prec_ = p;
  scale_ = 1.0f;
  bytes_.assign(static_cast<std::size_t>(count()) * precision_bytes(p),
                std::byte{0});
  load_f64(scratch.data());
}

TiledSymmetricMatrix::TiledSymmetricMatrix(index_t n, index_t nb,
                                           PrecisionMap map)
    : n_(n), nb_(nb), nt_((n + nb - 1) / nb), map_(std::move(map)) {
  EXACLIM_CHECK(n >= 1 && nb >= 1, "matrix and tile sizes must be >= 1");
  EXACLIM_CHECK(map_.nt == nt_, "precision map tile count mismatch");
  tiles_.reserve(static_cast<std::size_t>(nt_ * (nt_ + 1) / 2));
  for (index_t i = 0; i < nt_; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      try {
        tiles_.emplace_back(map_.at(i, j), tile_rows(i), tile_rows(j));
      } catch (const ResourceError&) {
        // Budget ladder rung 3: retry this tile one notch narrower. Only
        // off-diagonal tiles are eligible — diagonal tiles feed POTRF, whose
        // conditioning must not silently degrade. Scaled FP16 keeps entries
        // of any magnitude finite (PR-3 scaling), so narrowing is lossy but
        // never saturating. If even FP16 does not fit, the ResourceError
        // propagates with the site name.
        if (i == j || map_.at(i, j) == Precision::FP16) throw;
        map_.at(i, j) = Precision::FP16;
        tiles_.emplace_back(Precision::FP16, tile_rows(i), tile_rows(j));
        ++degraded_for_memory_;
      }
    }
  }
}

index_t TiledSymmetricMatrix::tile_rows(index_t i) const {
  return std::min(nb_, n_ - i * nb_);
}

TileBuffer& TiledSymmetricMatrix::tile(index_t i, index_t j) {
  EXACLIM_CHECK(i >= 0 && j >= 0 && j <= i && i < nt_,
                "tile index outside lower triangle");
  return tiles_[static_cast<std::size_t>(i * (i + 1) / 2 + j)];
}
const TileBuffer& TiledSymmetricMatrix::tile(index_t i, index_t j) const {
  EXACLIM_CHECK(i >= 0 && j >= 0 && j <= i && i < nt_,
                "tile index outside lower triangle");
  return tiles_[static_cast<std::size_t>(i * (i + 1) / 2 + j)];
}

TiledSymmetricMatrix TiledSymmetricMatrix::from_dense(const Matrix& a,
                                                      index_t nb,
                                                      PrecisionMap map) {
  EXACLIM_CHECK(a.rows() == a.cols(), "matrix must be square");
  TiledSymmetricMatrix t(a.rows(), nb, std::move(map));
  std::vector<double> scratch(static_cast<std::size_t>(nb * nb));
  for (index_t i = 0; i < t.nt_; ++i) {
    const index_t ri = t.tile_rows(i);
    for (index_t j = 0; j <= i; ++j) {
      const index_t cj = t.tile_rows(j);
      for (index_t r = 0; r < ri; ++r) {
        for (index_t c = 0; c < cj; ++c) {
          scratch[static_cast<std::size_t>(r * cj + c)] =
              a(i * nb + r, j * nb + c);
        }
      }
      t.tile(i, j).load_f64(scratch.data());
    }
  }
  return t;
}

Matrix TiledSymmetricMatrix::to_dense(bool lower_only) const {
  const std::vector<double> packed = to_packed_lower();
  Matrix a(n_, n_);
  for (index_t i = 0; i < n_; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      a(i, j) = packed[static_cast<std::size_t>(i * (i + 1) / 2 + j)];
      if (!lower_only) a(j, i) = a(i, j);
    }
  }
  return a;
}

std::vector<double> TiledSymmetricMatrix::to_packed_lower() const {
  std::vector<double> packed(static_cast<std::size_t>(n_ * (n_ + 1) / 2));
  std::vector<double> scratch(static_cast<std::size_t>(nb_ * nb_));
  for (index_t i = 0; i < nt_; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      const index_t cj = tile_rows(j);
      tile(i, j).store_f64(scratch.data());
      // A diagonal tile's strict upper part may hold stale pre-POTRF values.
      for (index_t r = 0, gr = i * nb_; r < tile_rows(i); ++r, ++gr) {
        std::copy_n(scratch.data() + r * cj, i == j ? r + 1 : cj,
                    packed.data() + gr * (gr + 1) / 2 + j * nb_);
      }
    }
  }
  return packed;
}

double TiledSymmetricMatrix::storage_bytes() const {
  double bytes = 0.0;
  for (const auto& t : tiles_) {
    bytes += static_cast<double>(t.count()) *
             static_cast<double>(precision_bytes(t.precision()));
  }
  return bytes;
}

}  // namespace exaclim::linalg
