// Corruption fuzz for the framed, checksummed artifact formats: every
// single-bit flip and every truncation of an EXACMDL4 model file or an
// EXACKPT1 checkpoint, and every crafted model header whose dimensions are
// implausible or overflow, must surface as a clean IoError — never a crash,
// a silent success, or an unbounded allocation. Also pins the version-bump
// contract (EXACMDL3-era files are rejected with an actionable message),
// the framed byte layout a gathered commit writes, and the EXACLIM1
// dataset header's agreement with its file size.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "climate/dataset.hpp"
#include "climate/synthetic_esm.hpp"
#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/framing.hpp"
#include "common/io.hpp"
#include "common/rng.hpp"
#include "core/emulator.hpp"
#include "core/serialize.hpp"
#include "linalg/precision_policy.hpp"
#include "linalg/tile_matrix.hpp"
#include "runtime/checkpoint.hpp"

namespace {

using namespace exaclim;
using namespace exaclim::core;

/// One trained-and-saved model shared by every fuzz case.
class SerializeFuzz : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    climate::SyntheticEsmConfig data_cfg;
    data_cfg.band_limit = 6;
    data_cfg.grid = {7, 12};
    data_cfg.num_years = 2;
    data_cfg.steps_per_year = 32;
    data_cfg.num_ensembles = 2;
    const auto esm = climate::generate_synthetic_esm(data_cfg);
    EmulatorConfig cfg;
    cfg.band_limit = 6;
    cfg.ar_order = 2;
    cfg.harmonics = 2;
    cfg.steps_per_year = 32;
    cfg.tile_size = 25;
    ClimateEmulator emulator(cfg);
    emulator.train(esm.data, esm.forcing);
    path_ = ::testing::TempDir() + "/exaclim_fuzz_model.bin";
    save_emulator(emulator, path_, FactorStorage::FP32);
    image_ = new std::vector<unsigned char>(common::read_file_bytes(path_));
  }
  static void TearDownTestSuite() {
    std::filesystem::remove(path_);
    delete image_;
    image_ = nullptr;
  }

  /// Writes `bytes` to a scratch path and reports how load_emulator reacts.
  enum class Outcome { Ok, IoErr, OtherErr };
  static Outcome load_outcome(const std::vector<unsigned char>& bytes) {
    const std::string p = ::testing::TempDir() + "/exaclim_fuzz_mut.bin";
    common::atomic_write_file(p, bytes.data(), bytes.size());
    Outcome out = Outcome::Ok;
    try {
      (void)load_emulator(p);
    } catch (const IoError&) {
      out = Outcome::IoErr;
    } catch (const std::exception&) {
      out = Outcome::OtherErr;
    }
    std::filesystem::remove(p);
    return out;
  }

  static std::string path_;
  static std::vector<unsigned char>* image_;
};

std::string SerializeFuzz::path_;
std::vector<unsigned char>* SerializeFuzz::image_ = nullptr;

TEST_F(SerializeFuzz, PristineImageLoads) {
  EXPECT_EQ(load_outcome(*image_), Outcome::Ok);
}

TEST_F(SerializeFuzz, EverySampledBitflipThrowsIoError) {
  // The frame (magic, total length, per-section length + CRC32C) must catch
  // a flip anywhere: headers via structural checks, payloads via checksum.
  // Exhaustive over the frame header region, sampled over the body.
  common::Rng rng(97);
  std::vector<std::size_t> positions;
  for (std::size_t b = 0; b < 64 && b < image_->size(); ++b) {
    positions.push_back(b);
  }
  for (int s = 0; s < 160; ++s) {
    positions.push_back(static_cast<std::size_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(image_->size()))));
  }
  for (const std::size_t pos : positions) {
    std::vector<unsigned char> mutant = *image_;
    mutant[pos] ^= static_cast<unsigned char>(
        1u << rng.uniform_u64(8));
    EXPECT_EQ(load_outcome(mutant), Outcome::IoErr) << "byte " << pos;
  }
}

TEST_F(SerializeFuzz, EverySampledTruncationThrowsIoError) {
  common::Rng rng(131);
  std::vector<std::size_t> lengths = {0, 1, 7, 8, 15, 16, 17};
  for (int s = 0; s < 60; ++s) {
    lengths.push_back(static_cast<std::size_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(image_->size()))));
  }
  for (const std::size_t len : lengths) {
    std::vector<unsigned char> mutant(image_->begin(),
                                      image_->begin() +
                                          static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(load_outcome(mutant), Outcome::IoErr) << "length " << len;
  }
}

TEST_F(SerializeFuzz, TrailingGarbageThrowsIoError) {
  // The total-length header pins the exact payload size, so appended bytes
  // (a torn rename over a longer old file, say) are rejected up front.
  std::vector<unsigned char> mutant = *image_;
  mutant.insert(mutant.end(), {0xde, 0xad, 0xbe, 0xef});
  EXPECT_EQ(load_outcome(mutant), Outcome::IoErr);
}

TEST_F(SerializeFuzz, OldFormatVersionRejectedByName) {
  // An EXACMDL3-era file shares the 7-byte family prefix but not the
  // version byte: the reader must say "unsupported version", not "corrupt".
  std::vector<unsigned char> old_file = *image_;
  old_file[7] = '3';
  const std::string p = ::testing::TempDir() + "/exaclim_fuzz_v3.bin";
  common::atomic_write_file(p, old_file.data(), old_file.size());
  try {
    (void)load_emulator(p);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(p);
}

TEST_F(SerializeFuzz, ForeignMagicRejected) {
  std::vector<unsigned char> alien = *image_;
  for (int b = 0; b < 8; ++b) alien[static_cast<std::size_t>(b)] = 'X';
  EXPECT_EQ(load_outcome(alien), Outcome::IoErr);
}

/// Re-frames the fixture model with section `tag`'s payload replaced by
/// `edit(payload)`. Every CRC is valid, so only the section decoders can
/// object to the result.
std::string reframed_model(
    const std::string& src, std::uint32_t tag,
    const std::function<void(std::vector<unsigned char>&)>& edit,
    const std::string& name) {
  const common::FramedFile file(src, "EXACMDL4", "emulator model");
  common::FramedWriter writer("EXACMDL4");
  for (std::uint32_t t = 1; t <= 5; ++t) {  // header, trend, AR, factor, nugget
    common::ByteReader in = file.section(t);
    std::vector<unsigned char> payload(in.remaining());
    in.raw(payload.data(), payload.size());
    if (t == tag) edit(payload);
    common::ByteWriter out;
    out.raw(payload.data(), payload.size());
    writer.add_section(t, out);
  }
  const std::string path = ::testing::TempDir() + name;
  writer.commit(path);
  return path;
}

TEST_F(SerializeFuzz, SectionDecodersRejectTrailingBytesAndCountMismatch) {
  // load_emulator reads through the FrozenModel accessors, so a well-framed
  // but inconsistent section is an IoError from either.
  const std::string trailing = reframed_model(
      path_, 2,
      [](std::vector<unsigned char>& p) { p.insert(p.end(), 8, 0); },
      "/exaclim_fuzz_trend_trailing.bin");
  const std::string short_nugget = reframed_model(
      path_, 5,
      [](std::vector<unsigned char>& p) {
        // vec64 layout: u64 count, then the values. Drop the last value and
        // decrement the count, so the section is self-consistent but holds
        // one value fewer than the grid has points.
        std::uint64_t count = 0;
        std::memcpy(&count, p.data(), sizeof(count));
        --count;
        std::memcpy(p.data(), &count, sizeof(count));
        p.resize(p.size() - sizeof(double));
      },
      "/exaclim_fuzz_nugget_count.bin");

  const FrozenModel bad_trend(trailing);
  EXPECT_THROW((void)bad_trend.trend_models(), IoError);
  EXPECT_NO_THROW((void)bad_trend.nugget_variance());
  const FrozenModel bad_nugget(short_nugget);
  EXPECT_THROW((void)bad_nugget.nugget_variance(), IoError);
  EXPECT_NO_THROW((void)bad_nugget.trend_models());
  EXPECT_THROW((void)load_emulator(trailing), IoError);
  EXPECT_THROW((void)load_emulator(short_nugget), IoError);
  std::filesystem::remove(trailing);
  std::filesystem::remove(short_nugget);
}

/// The fixture model re-framed with header fields overwritten: band limit
/// at header byte 0, nlat at 32, nlon at 40 (0 keeps the fixture's value),
/// and, if `empty_factor`, the FP64 storage tag (byte 48) over a factor
/// section of no bytes. Every CRC is valid.
std::string crafted_model(const std::string& src, index_t band_limit,
                          index_t nlat, index_t nlon, bool empty_factor) {
  const std::string path = reframed_model(
      src, 1,
      [&](std::vector<unsigned char>& header) {
        const std::pair<std::size_t, index_t> fields[] = {
            {0, band_limit}, {32, nlat}, {40, nlon}};
        for (const auto& [offset, value] : fields) {
          if (value != 0) {
            std::memcpy(header.data() + offset, &value, sizeof(value));
          }
        }
        if (empty_factor) header[48] = 0;
      },
      "/exaclim_fuzz_crafted_header.bin");
  if (!empty_factor) return path;
  return reframed_model(
      path, 4, [](std::vector<unsigned char>& factor) { factor.clear(); },
      "/exaclim_fuzz_crafted.bin");
}

long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

TEST_F(SerializeFuzz, CraftedHeaderDimensionsThrowIoErrorBeforeSizingAnything) {
  // A CRC is no defence against a crafted file, so nothing is sized from a
  // header before its dimensions are checked, and no section before its
  // size is. The fixture is L = 6 on a 7 x 12 grid. L = 2^31 makes n = L^2 =
  // 2^62, whose n(n+1)/2 packed entries overflow (a dense n x n wrapped to
  // 0 elements and was written through a null pointer; the 8-byte entries
  // of an FP64 factor wrapped to the 0 bytes of an empty section, which a
  // factor view of n = 2^62 then spanned). L = 2 is a band limit no emulator
  // takes, and a 6 x 14 grid (the fixture's 84 points) is too coarse for
  // L = 6. L = 100 and 3000, on grids fine enough for them, name factor, AR
  // and trend sections far larger than the file, and a 2000 x 2000 grid
  // names 4e6 trend records: each was allocated, or touched, before its size
  // was checked. Every case is an IoError from load_emulator and from the
  // FrozenModel accessors that size their sections from the header, and
  // none grows the peak RSS.
  using Read = void (*)(const FrozenModel&);
  const Read factor = [](const FrozenModel& m) { (void)m.factor(); };
  const Read ar = [](const FrozenModel& m) { (void)m.ar_models(); };
  const Read trend = [](const FrozenModel& m) { (void)m.trend_models(); };
  const Read nugget = [](const FrozenModel& m) { (void)m.nugget_variance(); };
  struct Case {
    const char* name;
    index_t band_limit, nlat, nlon;
    bool empty_factor;
    std::vector<Read> reads;
  };
  const index_t big = index_t{1} << 31;
  const std::vector<Case> cases = {
      {"L=2", 2, 0, 0, false, {factor, ar}},
      {"grid 6x14", 0, 6, 14, false, {trend}},
      {"L=100", 100, 101, 199, false, {factor, ar, trend}},
      {"L=3000", 3000, 3001, 5999, false, {factor, ar, trend}},
      {"grid 2000x2000", 0, 2000, 2000, false, {trend, nugget}},
      {"L=2^31, empty factor", big, 0, 0, true, {factor, ar}},
      {"L=2^31", big, 0, 0, false, {factor, ar}},
  };
  const long rss_before = peak_rss_kb();
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string p = crafted_model(path_, c.band_limit, c.nlat, c.nlon,
                                        c.empty_factor);
    EXPECT_THROW((void)load_emulator(p), IoError);
    for (const Read read : c.reads) {
      EXPECT_THROW(read(FrozenModel(p)), IoError);
    }
    std::filesystem::remove(p);
  }
  EXPECT_LT(peak_rss_kb() - rss_before, 16 * 1024) << "peak RSS grew (KiB)";
  std::filesystem::remove(::testing::TempDir() +
                          "/exaclim_fuzz_crafted_header.bin");
}

// ---------- framed layout ---------------------------------------------------

TEST(Framing, GatheredCommitMatchesHandAssembledImage) {
  // The writer gathers each section from where its payload lives. One owned
  // section and one borrowed section of 2500 pieces (more than IOV_MAX, some
  // empty) must produce exactly the documented layout, assembled here by
  // hand: magic, u64 total, then per section tag, length, CRC32C, payload.
  common::ByteWriter owned;
  for (std::uint32_t v = 0; v < 300; ++v) owned.pod(v * 2654435761u);
  const std::vector<unsigned char> owned_bytes = owned.bytes();

  std::vector<std::vector<unsigned char>> chunks(2500);
  std::vector<common::IoPiece> pieces;
  std::vector<unsigned char> borrowed_bytes;
  for (std::size_t k = 0; k < chunks.size(); ++k) {
    chunks[k].resize(k % 7 == 0 ? 0 : 1 + (k * 37) % 29);
    for (std::size_t b = 0; b < chunks[k].size(); ++b) {
      chunks[k][b] = static_cast<unsigned char>(k * 131 + b);
    }
    pieces.push_back({chunks[k].data(), chunks[k].size()});
    borrowed_bytes.insert(borrowed_bytes.end(), chunks[k].begin(),
                          chunks[k].end());
  }

  const std::string path = ::testing::TempDir() + "/exaclim_framing_gather.bin";
  common::FramedWriter writer("EXATEST1");
  writer.add_section(7, std::move(owned));
  writer.add_section(9, std::move(pieces));
  writer.commit(path);

  const std::pair<std::uint32_t, const std::vector<unsigned char>*>
      sections[] = {{7, &owned_bytes}, {9, &borrowed_bytes}};
  std::vector<unsigned char> expected;
  auto put = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    expected.insert(expected.end(), b, b + n);
  };
  put("EXATEST1", 8);
  std::uint64_t total = 0;
  for (const auto& [tag, payload] : sections) total += 16 + payload->size();
  put(&total, sizeof(total));
  for (const auto& [tag, payload] : sections) {
    const std::uint64_t len = payload->size();
    const std::uint32_t crc = common::crc32c(payload->data(), payload->size());
    put(&tag, sizeof(tag));
    put(&len, sizeof(len));
    put(&crc, sizeof(crc));
    put(payload->data(), payload->size());
  }
  EXPECT_EQ(common::read_file_bytes(path), expected);

  const common::FramedFile file(path, "EXATEST1", "test artifact");
  for (const auto& [tag, payload] : sections) {
    common::ByteReader in = file.section(tag);
    std::vector<unsigned char> back(in.remaining());
    in.raw(back.data(), back.size());
    EXPECT_EQ(back, *payload) << "section " << tag;
  }
  std::filesystem::remove(path);
}

// ---------- checkpoint artifact ---------------------------------------------

linalg::TiledSymmetricMatrix small_tiled() {
  const index_t n = 64;
  linalg::Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = 0; j < n; ++j) {
      a(i, j) = std::exp(-std::abs(static_cast<double>(i - j)) / 10.0);
    }
    a(i, i) += 1e-3;
  }
  return linalg::TiledSymmetricMatrix::from_dense(
      a, 16, linalg::make_band_policy(4, linalg::PrecisionVariant::DP_HP));
}

TEST(CheckpointFuzz, BitflipsAndTruncationsThrowIoError) {
  auto tiled = small_tiled();
  const std::string p = ::testing::TempDir() + "/exaclim_fuzz_ckpt.bin";
  runtime::write_cholesky_checkpoint(p, tiled, std::vector<std::uint8_t>(10, 1));
  const auto image = common::read_file_bytes(p);

  common::Rng rng(211);
  for (int s = 0; s < 120; ++s) {
    std::vector<unsigned char> mutant = image;
    const auto pos = static_cast<std::size_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(image.size())));
    mutant[pos] ^= static_cast<unsigned char>(1u << rng.uniform_u64(8));
    common::atomic_write_file(p, mutant.data(), mutant.size());
    auto scratch = small_tiled();
    EXPECT_THROW((void)runtime::read_cholesky_checkpoint(p, scratch), IoError)
        << "byte " << pos;
  }
  for (int s = 0; s < 40; ++s) {
    const auto len = static_cast<std::size_t>(
        rng.uniform_u64(static_cast<std::uint64_t>(image.size())));
    common::atomic_write_file(p, image.data(), len);
    auto scratch = small_tiled();
    EXPECT_THROW((void)runtime::read_cholesky_checkpoint(p, scratch), IoError)
        << "length " << len;
  }
  std::filesystem::remove(p);
}

TEST(CheckpointFuzz, ShapeMismatchNamesBothShapes) {
  auto tiled = small_tiled();
  const std::string p = ::testing::TempDir() + "/exaclim_fuzz_ckpt_shape.bin";
  runtime::write_cholesky_checkpoint(p, tiled,
                                     std::vector<std::uint8_t>(10, 0));
  // Resume against a differently-tiled matrix must fail loudly.
  const index_t n = 64;
  linalg::Matrix a(n, n);
  for (index_t i = 0; i < n; ++i) a(i, i) = 2.0;
  auto other = linalg::TiledSymmetricMatrix::from_dense(
      a, 32, linalg::make_band_policy(2, linalg::PrecisionVariant::DP));
  try {
    (void)runtime::read_cholesky_checkpoint(p, other);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("shape"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove(p);
}

// An EXACLIM1 dataset file is 8 magic bytes, five int64 dimensions
// (nlat, nlon, steps, members, steps per year) and the payload.
std::vector<unsigned char> dataset_image(const std::vector<index_t>& header,
                                         std::size_t payload_bytes) {
  std::vector<unsigned char> bytes = {'E', 'X', 'A', 'C', 'L', 'I', 'M', '1'};
  const auto* h = reinterpret_cast<const unsigned char*>(header.data());
  bytes.insert(bytes.end(), h, h + header.size() * sizeof(index_t));
  bytes.resize(bytes.size() + payload_bytes, 0x3f);
  return bytes;
}

/// Loads `bytes` as a dataset; returns the IoError message, or "" if it
/// loaded.
std::string dataset_load_error(const std::vector<unsigned char>& bytes) {
  const std::string p = ::testing::TempDir() + "/exaclim_fuzz_dataset.bin";
  common::atomic_write_file(p, bytes.data(), bytes.size());
  std::string error;
  try {
    (void)climate::ClimateDataset::load(p);
  } catch (const IoError& e) {
    error = e.what();
  }
  std::filesystem::remove(p);
  return error;
}

TEST(DatasetFuzz, HeaderMustMatchFileSize) {
  // nlat = nlon = 2^31, 4 steps, 1 member: R T nlat nlon doubles wrap a
  // size_t to 0, which once loaded as an empty dataset whose field(0, 3)
  // spanned 2^62 elements.
  const index_t big = index_t{1} << 31;
  const std::string wrapped = dataset_load_error(
      dataset_image({big, big, 4, 1, 1}, 0));
  EXPECT_NE(wrapped.find("implies more than"), std::string::npos) << wrapped;
  EXPECT_THROW(climate::ClimateDataset(sht::GridShape{big, big}, 4, 1, 1),
               InvalidArgument);

  // A huge header on a short file is refused before anything is allocated.
  const std::string huge = dataset_load_error(
      dataset_image({100000, 200000, 10000, 8, 1}, 16));
  EXPECT_NE(huge.find("implies 12800000000000000 payload bytes"),
            std::string::npos)
      << huge;
  EXPECT_NE(huge.find("holds 16"), std::string::npos) << huge;

  // Truncated, oversized and trailing-byte files name both sizes.
  const std::size_t payload = 3 * 4 * 2 * 1 * sizeof(double);
  for (const std::size_t held :
       {std::size_t{0}, payload - 1, payload - 8, payload + 1, payload + 8}) {
    const std::string error =
        dataset_load_error(dataset_image({3, 4, 2, 1, 1}, held));
    EXPECT_NE(error.find("implies " + std::to_string(payload) +
                         " payload bytes but the file holds " +
                         std::to_string(held)),
              std::string::npos)
        << error;
  }

  // The round trip still loads, byte for byte.
  climate::ClimateDataset ds(sht::GridShape{3, 4}, 2, 1, 1);
  for (std::size_t i = 0; i < ds.raw().size(); ++i) {
    ds.raw()[i] = 280.0 + 0.5 * static_cast<double>(i);
  }
  const std::string p = ::testing::TempDir() + "/exaclim_fuzz_dataset_ok.bin";
  ds.save(p);
  const auto back = climate::ClimateDataset::load(p);
  std::filesystem::remove(p);
  EXPECT_TRUE(back.raw() == ds.raw());
  EXPECT_EQ(back.num_steps(), 2);
  EXPECT_EQ(back.grid().nlon, 4);
}

}  // namespace
