// Binary serialization of trained emulators.
//
// This *is* the storage-savings mechanism: a saved model file replaces the
// raw multi-petabyte archive, because any number of statistically consistent
// ensemble members can be regenerated from it. The dominant term is the
// L^2 x L^2 Cholesky factor V, so the file format supports storing V in
// reduced precision — the storage-side mirror of the solver's tile
// precision policies (fp16 rows are scaled per row so the wide dynamic
// range of the factor survives the 5-bit exponent).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/framing.hpp"
#include "core/emulator.hpp"
#include "linalg/kernels.hpp"

namespace exaclim::core {

/// Storage precision of the Cholesky factor V inside a model file.
enum class FactorStorage : std::uint8_t {
  FP64 = 0,        ///< lossless (8 B/element)
  FP32 = 1,        ///< ~1e-7 relative loss (4 B/element)
  FP16Scaled = 2,  ///< per-row scaled binary16 (2 B/element + 4 B/row)
};

/// Writes the trained model (throws InvalidArgument if untrained). Only the
/// lower triangle of V is stored.
void save_emulator(const ClimateEmulator& emulator, const std::string& path,
                   FactorStorage factor_storage = FactorStorage::FP64);

/// Reads a model written by save_emulator (any factor storage): a
/// FrozenModel's sections, copied, the factor widened to packed F64 rows.
/// A malformed or crafted file is an IoError.
ClimateEmulator load_emulator(const std::string& path);

/// A trained model opened read-only via mmap, for serving.
///
/// Construction maps the file and validates only the frame structure plus
/// the (tiny) header section; every other section's CRC32C is checked
/// lazily, on first touch, by the underlying MappedFramedFile — so opening
/// a model whose factor section is gigabytes costs O(1) reads, and a
/// flipped bit in the factor payload surfaces as an IoError naming the
/// byte offset the first time a sampler touches it (and every time after).
///
/// All accessors are safe to call from any number of threads concurrently;
/// the factor view aliases the mapping with zero copies, so one FrozenModel
/// serves every worker in the process. The fp32 degraded plane (the
/// degradation ladder's reduced-precision rung) is materialized at most
/// once, on first request, behind a once-guard.
class FrozenModel {
 public:
  explicit FrozenModel(const std::string& path);

  index_t band_limit() const { return band_limit_; }
  index_t ar_order() const { return ar_order_; }
  index_t harmonics() const { return harmonics_; }
  index_t steps_per_year() const { return steps_per_year_; }
  const sht::GridShape& grid() const { return grid_; }
  FactorStorage factor_storage() const { return storage_; }
  /// Dimension n of the n x n Cholesky factor (= band_limit^2).
  index_t factor_dim() const { return factor_dim_; }
  const std::string& path() const { return file_.path(); }

  /// Zero-copy view of the packed factor in its native storage precision.
  /// First call CRC-validates the factor section (IoError with byte offset
  /// on corruption) and checks its size against the header dimensions.
  linalg::PackedFactorView factor() const;

  /// Factor view for the degradation ladder's reduced-precision rung: the
  /// native view when the model is already stored narrow (fp32/fp16), else
  /// a shared packed-fp32 copy materialized from the fp64 payload on first
  /// call. Thread-safe; the copy is built exactly once.
  linalg::PackedFactorView degraded_factor() const;

  /// True once degraded_factor() has materialized an fp32 copy (always
  /// false for models stored fp32/fp16, whose degraded view is the native
  /// mapping).
  bool degraded_plane_materialized() const;

  /// Trend/AR/nugget state, parsed (and CRC-validated) on first call.
  const std::vector<stats::TrendModel>& trend_models() const;
  const std::vector<stats::ArModel>& ar_models() const;
  const std::vector<double>& nugget_variance() const;

 private:
  common::MappedFramedFile file_;
  index_t band_limit_ = 0;
  index_t ar_order_ = 0;
  index_t harmonics_ = 0;
  index_t steps_per_year_ = 0;
  sht::GridShape grid_{};
  FactorStorage storage_ = FactorStorage::FP64;
  index_t factor_dim_ = 0;

  // Lazy members use mutex + acquire/release ready flags, not
  // std::call_once: the initializers can throw (corrupt sections), and a
  // throwing call_once callable deadlocks later callers under TSan's
  // pthread_once interceptor. The flag is the fast path; the mutex
  // serializes (and allows retrying) the one-time build.
  mutable std::mutex lazy_mu_;
  mutable std::vector<unsigned char> degraded_;  ///< packed fp32 copy
  mutable std::atomic<bool> degraded_built_{false};
  mutable std::vector<stats::TrendModel> trend_;
  mutable std::atomic<bool> trend_ready_{false};
  mutable std::vector<stats::ArModel> ar_;
  mutable std::atomic<bool> ar_ready_{false};
  mutable std::vector<double> nugget_;
  mutable std::atomic<bool> nugget_ready_{false};
};

}  // namespace exaclim::core
