#include "core/serialize.hpp"

#include <cmath>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/half.hpp"

namespace exaclim::core {

namespace {

// Format v4: framed container (common/framing.hpp) — 8-byte magic, u64
// total-length header, and per-section CRC32C — written atomically. Older
// EXACMDL3 files (raw concatenated streams, no checksums) are rejected by the
// frame reader with a clean unsupported-version error.
constexpr char kMagic[] = "EXACMDL4";
constexpr const char* kWhat = "emulator model";

constexpr std::uint32_t kSectionHeader = 1;
constexpr std::uint32_t kSectionTrend = 2;
constexpr std::uint32_t kSectionAr = 3;
constexpr std::uint32_t kSectionFactor = 4;
constexpr std::uint32_t kSectionNugget = 5;

struct Header {
  index_t band_limit = 0;
  index_t ar_order = 0;
  index_t harmonics = 0;
  index_t steps_per_year = 0;
  index_t nlat = 0;
  index_t nlon = 0;
  std::uint8_t factor_storage = 0;
  std::uint8_t pad[7] = {};  // explicit padding: artifact bytes deterministic
};

/// Adds the factor section from the packed rows of an n x n lower factor:
/// FP64 borrows the rows where they lie, FP32 and FP16Scaled narrow them.
/// `packed` must outlive the writer's commit().
void add_factor(common::FramedWriter& writer, std::span<const double> packed,
                index_t n, FactorStorage storage) {
  if (storage == FactorStorage::FP64) {
    writer.add_section(kSectionFactor,
                       {{packed.data(), packed.size() * sizeof(double)}});
    return;
  }
  common::ByteWriter out;
  if (storage == FactorStorage::FP32) {
    const std::vector<float> narrow(packed.begin(), packed.end());
    out.raw(narrow.data(), narrow.size() * sizeof(float));
  } else {
    // Per-row scaling keeps each row inside the binary16 range regardless
    // of the factor's dynamic range.
    std::vector<std::uint16_t> row;
    for (index_t i = 0; i < n; ++i) {
      const auto v = packed.subspan(static_cast<std::size_t>(i * (i + 1) / 2),
                                    static_cast<std::size_t>(i + 1));
      double max_abs = 0.0;
      for (const double x : v) max_abs = std::max(max_abs, std::abs(x));
      const float scale =
          max_abs > 0.0 ? static_cast<float>(max_abs / 32768.0) : 1.0f;
      out.pod(scale);
      row.resize(v.size());
      for (std::size_t j = 0; j < v.size(); ++j) {
        row[j] = common::float_to_half_bits(static_cast<float>(v[j]) / scale);
      }
      out.raw(row.data(), row.size() * sizeof(std::uint16_t));
    }
  }
  writer.add_section(kSectionFactor, std::move(out));
}

/// The packed rows of a factor section, widened to PackedStorage::F64. An
/// FP16Scaled entry is the float product of its half and its row's scale.
std::vector<double> widen_factor(const linalg::PackedFactorView& v) {
  std::vector<double> out(static_cast<std::size_t>(v.n * (v.n + 1) / 2));
  const unsigned char* in = v.bytes;
  const auto next = [&in](auto& value) {
    std::memcpy(&value, in, sizeof(value));
    in += sizeof(value);
  };
  if (v.storage == linalg::PackedStorage::F64) {
    std::memcpy(out.data(), in, out.size() * sizeof(double));
  } else if (v.storage == linalg::PackedStorage::F32) {
    for (double& x : out) {
      float f = 0.0f;
      next(f);
      x = f;
    }
  } else {
    double* dst = out.data();
    for (index_t i = 0; i < v.n; ++i) {
      float scale = 0.0f;
      next(scale);
      for (index_t j = 0; j <= i; ++j) {
        std::uint16_t h = 0;
        next(h);
        *dst++ = static_cast<double>(common::half_bits_to_float(h) * scale);
      }
    }
  }
  return out;
}

void expect_end(const common::ByteReader& in, const char* section) {
  if (!in.at_end()) {
    throw IoError(std::string("corrupt model file: ") + section +
                  " section has trailing bytes (at byte offset " +
                  std::to_string(in.offset()) + ")");
  }
}

/// Validates a parsed header and returns the factor storage tag it names.
/// Every value check_config rejects, a grid too coarse for the band limit's
/// SHT plan, and a band limit or grid whose derived counts overflow (n = L^2,
/// the n(n+1)/2 packed entries, their bytes in FP64, the widest storage and
/// the one load_emulator widens to, and nlat * nlon points) is an IoError:
/// nothing is sized from a header that fails here.
FactorStorage check_header(const Header& header) {
  if (header.factor_storage > 2) {
    throw IoError("corrupt model file: bad factor storage tag " +
                  std::to_string(header.factor_storage));
  }
  bool valid = true;
  try {
    EmulatorConfig cfg;
    cfg.band_limit = header.band_limit;
    cfg.ar_order = header.ar_order;
    cfg.harmonics = header.harmonics;
    cfg.steps_per_year = header.steps_per_year;
    check_config(cfg);
  } catch (const InvalidArgument&) {
    valid = false;
  }
  // nlat >= L + 1 and nlon >= 2L - 1 (sht::SHTPlan), with L >= 4 known;
  // nlon >= L first keeps nlon - L from overflowing.
  valid = valid && header.nlat > header.band_limit &&
          header.nlon >= header.band_limit &&
          header.nlon - header.band_limit >= header.band_limit - 1;
  std::size_t n = 0, twice_entries = 0, bytes = 0, points = 0;
  valid = valid &&
          !__builtin_mul_overflow(static_cast<std::size_t>(header.band_limit),
                                  static_cast<std::size_t>(header.band_limit),
                                  &n) &&
          !__builtin_mul_overflow(n, n + 1, &twice_entries) &&
          !__builtin_mul_overflow(twice_entries / 2, sizeof(double), &bytes) &&
          bytes <= static_cast<std::size_t>(PTRDIFF_MAX) &&
          !__builtin_mul_overflow(static_cast<std::size_t>(header.nlat),
                                  static_cast<std::size_t>(header.nlon),
                                  &points) &&
          points <= static_cast<std::size_t>(PTRDIFF_MAX);
  if (!valid) {
    throw IoError("corrupt model file: implausible header dimensions (L=" +
                  std::to_string(header.band_limit) +
                  ", P=" + std::to_string(header.ar_order) +
                  ", K=" + std::to_string(header.harmonics) +
                  ", tau=" + std::to_string(header.steps_per_year) +
                  ", grid " + std::to_string(header.nlat) + " x " +
                  std::to_string(header.nlon) + ")");
  }
  return static_cast<FactorStorage>(header.factor_storage);
}

// Trend/AR/nugget decoders of FrozenModel's lazy accessors.

std::vector<stats::TrendModel> decode_trend(common::ByteReader in,
                                            index_t num_points,
                                            index_t steps_per_year) {
  // A record is at least its five scalars and two empty coefficient lists.
  in.check_remaining(static_cast<std::uint64_t>(num_points),
                     5 * sizeof(double) + 2 * sizeof(std::uint64_t));
  std::vector<stats::TrendModel> trend(static_cast<std::size_t>(num_points));
  for (auto& tm : trend) {
    double scalars[5];
    in.raw(scalars, sizeof(scalars));
    tm.beta0 = scalars[0];
    tm.beta1 = scalars[1];
    tm.beta2 = scalars[2];
    tm.rho = scalars[3];
    tm.sigma = scalars[4];
    tm.cos_coeff = in.vec64<double>();
    tm.sin_coeff = in.vec64<double>();
    tm.period = steps_per_year;
  }
  expect_end(in, "trend");
  return trend;
}

std::vector<stats::ArModel> decode_ar(common::ByteReader in, index_t count) {
  // A record is at least an empty phi list and its innovation variance.
  in.check_remaining(static_cast<std::uint64_t>(count),
                     sizeof(std::uint64_t) + sizeof(double));
  std::vector<stats::ArModel> ar(static_cast<std::size_t>(count));
  for (auto& am : ar) {
    am.phi = in.vec64<double>();
    am.innovation_variance = in.pod<double>();
  }
  expect_end(in, "AR");
  return ar;
}

std::vector<double> decode_nugget(common::ByteReader in, index_t num_points) {
  const std::size_t at = in.offset();
  std::vector<double> nugget = in.vec64<double>();
  if (static_cast<index_t>(nugget.size()) != num_points) {
    throw IoError("corrupt model file: nugget section holds " +
                  std::to_string(nugget.size()) + " values but the grid has " +
                  std::to_string(num_points) + " points (at byte offset " +
                  std::to_string(at) + ")");
  }
  expect_end(in, "nugget");
  return nugget;
}

/// Builds a FrozenModel lazy member once (see the member comment in
/// serialize.hpp for why not std::call_once).
template <typename T, typename Build>
const T& build_once(std::mutex& mu, std::atomic<bool>& ready, T& value,
                    Build&& build) {
  if (!ready.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu);
    if (!ready.load(std::memory_order_acquire)) {
      value = build();
      ready.store(true, std::memory_order_release);
    }
  }
  return value;
}

linalg::PackedStorage to_packed(FactorStorage storage) {
  switch (storage) {
    case FactorStorage::FP64: return linalg::PackedStorage::F64;
    case FactorStorage::FP32: return linalg::PackedStorage::F32;
    case FactorStorage::FP16Scaled: return linalg::PackedStorage::F16Scaled;
  }
  return linalg::PackedStorage::F64;
}

}  // namespace

void save_emulator(const ClimateEmulator& emulator, const std::string& path,
                   FactorStorage factor_storage) {
  EXACLIM_CHECK(emulator.is_trained(), "cannot save an untrained emulator");
  common::FramedWriter writer(kMagic);

  const EmulatorConfig& cfg = emulator.config();
  common::ByteWriter header;
  header.pod(Header{cfg.band_limit, cfg.ar_order, cfg.harmonics,
                    cfg.steps_per_year, emulator.grid().nlat,
                    emulator.grid().nlon,
                    static_cast<std::uint8_t>(factor_storage)});
  writer.add_section(kSectionHeader, std::move(header));

  common::ByteWriter trend;
  for (const auto& tm : emulator.trend_models()) {
    const double scalars[5] = {tm.beta0, tm.beta1, tm.beta2, tm.rho, tm.sigma};
    trend.raw(scalars, sizeof(scalars));
    trend.vec64(tm.cos_coeff);
    trend.vec64(tm.sin_coeff);
  }
  writer.add_section(kSectionTrend, std::move(trend));

  common::ByteWriter ar;
  for (const auto& am : emulator.ar_models()) {
    ar.vec64(am.phi);
    ar.pod(am.innovation_variance);
  }
  writer.add_section(kSectionAr, std::move(ar));

  add_factor(writer, emulator.state().factor, sh_coeff_count(cfg.band_limit),
             factor_storage);

  common::ByteWriter nugget;
  nugget.vec64(emulator.nugget_variance());
  writer.add_section(kSectionNugget, std::move(nugget));

  writer.commit(path);
}

ClimateEmulator load_emulator(const std::string& path) {
  // The file's one reader: every section is CRC-checked and decoded by the
  // accessors serving uses, then copied into the packed F64 state.
  const FrozenModel model(path);
  EmulatorConfig cfg;
  cfg.band_limit = model.band_limit();
  cfg.ar_order = model.ar_order();
  cfg.harmonics = model.harmonics();
  cfg.steps_per_year = model.steps_per_year();
  TrainedVariables state;
  state.trend = {model.trend_models()};
  state.ar = model.ar_models();
  state.factor = widen_factor(model.factor());
  state.nugget_var = {model.nugget_variance()};
  state.plan =
      std::make_shared<const sht::SHTPlan>(cfg.band_limit, model.grid());
  return ClimateEmulator(std::move(cfg), std::move(state));
}

FrozenModel::FrozenModel(const std::string& path)
    : file_(path, kMagic, kWhat) {
  // The header is the only section touched at open: a few dozen bytes whose
  // CRC check is effectively free, and everything else a caller might do
  // needs these dimensions anyway.
  common::ByteReader hr = file_.section(kSectionHeader);
  const auto header = hr.pod<Header>();
  storage_ = check_header(header);
  band_limit_ = header.band_limit;
  ar_order_ = header.ar_order;
  harmonics_ = header.harmonics;
  steps_per_year_ = header.steps_per_year;
  grid_ = sht::GridShape{header.nlat, header.nlon};
  factor_dim_ = sh_coeff_count(band_limit_);
}

linalg::PackedFactorView FrozenModel::factor() const {
  // The section_size call CRC-validates the payload on first touch
  // (throwing IoError with the byte offset on a flipped bit; the verdict is
  // cached inside MappedFramedFile so corruption fails every touch), then
  // the size is cross-checked against the header dimensions — cheap enough
  // to repeat, so no once-state of its own.
  const std::size_t expect =
      linalg::packed_factor_bytes(to_packed(storage_), factor_dim_);
  const std::size_t actual = file_.section_size(kSectionFactor);
  if (actual != expect) {
    throw IoError("corrupt emulator model: factor section holds " +
                  std::to_string(actual) + " bytes but the header implies " +
                  std::to_string(expect) + " (at byte offset " +
                  std::to_string(file_.section_offset(kSectionFactor)) + ")");
  }
  linalg::PackedFactorView view;
  view.bytes = file_.section_data(kSectionFactor);
  view.size_bytes = actual;
  view.n = factor_dim_;
  view.storage = to_packed(storage_);
  return view;
}

linalg::PackedFactorView FrozenModel::degraded_factor() const {
  if (storage_ != FactorStorage::FP64) {
    // Already narrow on disk: the reduced-precision rung is the native
    // mapping itself, still zero copies.
    return factor();
  }
  const linalg::PackedFactorView native = factor();
  build_once(lazy_mu_, degraded_built_, degraded_, [&] {
    const std::size_t count = static_cast<std::size_t>(factor_dim_) *
                              static_cast<std::size_t>(factor_dim_ + 1) / 2;
    std::vector<unsigned char> copy(count * sizeof(float));
    const auto* src = reinterpret_cast<const double*>(native.bytes);
    auto* dst = reinterpret_cast<float*>(copy.data());
    for (std::size_t i = 0; i < count; ++i) {
      dst[i] = static_cast<float>(src[i]);
    }
    return copy;
  });
  linalg::PackedFactorView view;
  view.bytes = degraded_.data();
  view.size_bytes = degraded_.size();
  view.n = factor_dim_;
  view.storage = linalg::PackedStorage::F32;
  return view;
}

bool FrozenModel::degraded_plane_materialized() const {
  return degraded_built_.load(std::memory_order_acquire);
}

const std::vector<stats::TrendModel>& FrozenModel::trend_models() const {
  return build_once(lazy_mu_, trend_ready_, trend_, [&] {
    return decode_trend(file_.section(kSectionTrend), grid_.num_points(),
                        steps_per_year_);
  });
}

const std::vector<stats::ArModel>& FrozenModel::ar_models() const {
  return build_once(lazy_mu_, ar_ready_, ar_, [&] {
    return decode_ar(file_.section(kSectionAr), factor_dim_);
  });
}

const std::vector<double>& FrozenModel::nugget_variance() const {
  return build_once(lazy_mu_, nugget_ready_, nugget_, [&] {
    return decode_nugget(file_.section(kSectionNugget), grid_.num_points());
  });
}

}  // namespace exaclim::core
