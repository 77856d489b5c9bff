#include "climate/dataset.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>

#include "common/error.hpp"
#include "common/io.hpp"
#include "common/parallel.hpp"

namespace exaclim::climate {

namespace {
constexpr char kMagic[8] = {'E', 'X', 'A', 'C', 'L', 'I', 'M', '1'};
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 5 * sizeof(index_t);

/// Payload bytes R * T * nlat * nlon * 8 of a dataset shape. Throws
/// InvalidArgument for a degenerate shape and sets `overflow` (returning 0)
/// when the product does not fit in PTRDIFF_MAX bytes.
std::size_t payload_bytes(sht::GridShape grid, index_t num_steps,
                          index_t num_ensembles, index_t steps_per_year,
                          bool& overflow) {
  EXACLIM_CHECK(grid.nlat >= 2 && grid.nlon >= 1, "degenerate grid");
  EXACLIM_CHECK(num_steps >= 1 && num_ensembles >= 1 && steps_per_year >= 1,
                "dataset dimensions must be >= 1");
  std::size_t bytes = sizeof(double);
  overflow = false;
  for (const index_t d : {grid.nlat, grid.nlon, num_steps, num_ensembles}) {
    overflow = overflow ||
               __builtin_mul_overflow(bytes, static_cast<std::size_t>(d),
                                      &bytes) ||
               bytes > static_cast<std::size_t>(PTRDIFF_MAX);
  }
  return overflow ? 0 : bytes;
}
}  // namespace

ClimateDataset::ClimateDataset(sht::GridShape grid, index_t num_steps,
                               index_t num_ensembles, index_t steps_per_year)
    : grid_(grid),
      num_steps_(num_steps),
      num_ensembles_(num_ensembles),
      steps_per_year_(steps_per_year) {
  bool overflow = false;
  const std::size_t bytes = payload_bytes(grid, num_steps, num_ensembles,
                                          steps_per_year, overflow);
  EXACLIM_CHECK(!overflow, "dataset dimensions overflow the address space");
  data_.resize(bytes / sizeof(double));
  // 256 KB chunks: a small dataset is one chunk and fills inline.
  constexpr index_t kChunk = index_t{1} << 15;
  const auto count = static_cast<index_t>(data_.size());
  double* data = data_.data();
  common::parallel_for(0, (count + kChunk - 1) / kChunk, [&](index_t c) {
    std::fill(data + c * kChunk, data + std::min(count, (c + 1) * kChunk),
              0.0);
  });
}

double ClimateDataset::total_points() const {
  return static_cast<double>(num_ensembles_) *
         static_cast<double>(num_steps_) *
         static_cast<double>(grid_.num_points());
}

std::span<double> ClimateDataset::field(index_t ensemble, index_t step) {
  EXACLIM_CHECK(ensemble >= 0 && ensemble < num_ensembles_, "bad ensemble");
  EXACLIM_CHECK(step >= 0 && step < num_steps_, "bad time step");
  const std::size_t pts = static_cast<std::size_t>(grid_.num_points());
  return {data_.data() +
              (static_cast<std::size_t>(ensemble) *
                   static_cast<std::size_t>(num_steps_) +
               static_cast<std::size_t>(step)) *
                  pts,
          pts};
}

std::span<const double> ClimateDataset::field(index_t ensemble,
                                              index_t step) const {
  return const_cast<ClimateDataset*>(this)->field(ensemble, step);
}

std::vector<double> ClimateDataset::time_series(index_t ensemble, index_t lat,
                                                index_t lon) const {
  EXACLIM_CHECK(lat >= 0 && lat < grid_.nlat && lon >= 0 && lon < grid_.nlon,
                "grid point out of range");
  std::vector<double> out(static_cast<std::size_t>(num_steps_));
  for (index_t t = 0; t < num_steps_; ++t) {
    out[static_cast<std::size_t>(t)] =
        field(ensemble, t)[static_cast<std::size_t>(lat * grid_.nlon + lon)];
  }
  return out;
}

void ClimateDataset::save(const std::string& path) const {
  const index_t header[5] = {grid_.nlat, grid_.nlon, num_steps_,
                             num_ensembles_, steps_per_year_};
  const common::IoPiece pieces[] = {
      {kMagic, sizeof(kMagic)},
      {header, sizeof(header)},
      {data_.data(), data_.size() * sizeof(double)}};
  common::atomic_write_file(path, pieces);
}

bool ClimateDataset::has_magic(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[8];
  return in.read(magic, sizeof(magic)) &&
         std::memcmp(magic, kMagic, sizeof(kMagic)) == 0;
}

ClimateDataset ClimateDataset::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open for reading: " + path);
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw IoError("not an ExaClim dataset: " + path);
  }
  index_t header[5];
  in.read(reinterpret_cast<char*>(header), sizeof(header));
  if (!in) throw IoError("truncated dataset header: " + path);
  const sht::GridShape grid{header[0], header[1]};
  bool overflow = false;
  const std::size_t implied =
      payload_bytes(grid, header[2], header[3], header[4], overflow);
  in.seekg(0, std::ios::end);
  const auto file_bytes = static_cast<std::size_t>(in.tellg());
  const std::size_t held = file_bytes - kHeaderBytes;
  if (overflow || implied != held) {
    throw IoError("dataset header implies " +
                  (overflow ? std::string("more than ") +
                                  std::to_string(PTRDIFF_MAX)
                            : std::to_string(implied)) +
                  " payload bytes but the file holds " + std::to_string(held) +
                  ": " + path);
  }
  in.seekg(static_cast<std::streamoff>(kHeaderBytes));
  ClimateDataset ds(grid, header[2], header[3], header[4]);
  in.read(reinterpret_cast<char*>(ds.data_.data()),
          static_cast<std::streamsize>(implied));
  if (!in) throw IoError("truncated dataset payload: " + path);
  return ds;
}

}  // namespace exaclim::climate
