// In-memory spatio-temporal ensemble container + binary IO.
//
// Layout follows the paper's indexing y^(r)_t(theta_i, phi_j): ensembles
// outermost, then time, then a row-major (lat, lon) field. Values are surface
// temperature in Kelvin.
#pragma once

#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sht/sht.hpp"

namespace exaclim::climate {

/// std::allocator whose value-less construct() default-initializes, so
/// resize() leaves doubles untouched until their first write.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}
  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

class ClimateDataset {
 public:
  using Storage = std::vector<double, DefaultInitAllocator<double>>;

  ClimateDataset() = default;
  /// Zero-filled by common::parallel_for, so the first-touch page faults of
  /// a large dataset are spread over the team. Throws InvalidArgument for a
  /// degenerate shape or one of more than PTRDIFF_MAX bytes.
  ClimateDataset(sht::GridShape grid, index_t num_steps, index_t num_ensembles,
                 index_t steps_per_year);

  const sht::GridShape& grid() const { return grid_; }
  index_t num_steps() const { return num_steps_; }
  index_t num_ensembles() const { return num_ensembles_; }
  index_t steps_per_year() const { return steps_per_year_; }
  index_t num_years() const {
    return (num_steps_ + steps_per_year_ - 1) / steps_per_year_;
  }
  /// Total data points R * T * Nlat * Nlon.
  double total_points() const;

  std::span<double> field(index_t ensemble, index_t step);
  std::span<const double> field(index_t ensemble, index_t step) const;

  /// Time series at one grid point for one ensemble (strided copy).
  std::vector<double> time_series(index_t ensemble, index_t lat,
                                  index_t lon) const;

  /// Flat storage (r-major, then t, then field).
  Storage& raw() { return data_; }
  const Storage& raw() const { return data_; }

  /// Simple binary format (header + little-endian doubles), written through
  /// common::atomic_write_file (SyncPolicy::Full) straight from storage.
  void save(const std::string& path) const;
  /// Throws IoError naming both sizes when the payload the header implies
  /// differs from the file's, before allocating anything.
  static ClimateDataset load(const std::string& path);
  /// True when `path` opens and starts with the dataset magic (EXACLIM1):
  /// a file-kind dispatch that leaves load()'s verdict to load().
  static bool has_magic(const std::string& path);

 private:
  sht::GridShape grid_{};
  index_t num_steps_ = 0;
  index_t num_ensembles_ = 0;
  index_t steps_per_year_ = 1;
  Storage data_;
};

}  // namespace exaclim::climate
