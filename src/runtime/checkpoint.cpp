#include "runtime/checkpoint.hpp"

#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/framing.hpp"
#include "common/parallel.hpp"

namespace exaclim::runtime {

namespace {

constexpr char kMagic[] = "EXACKPT1";
constexpr std::uint32_t kSectionHeader = 1;
constexpr std::uint32_t kSectionDone = 2;
constexpr std::uint32_t kSectionTiles = 3;
constexpr const char* kWhat = "Cholesky checkpoint";

struct Header {
  std::uint64_t n = 0;
  std::uint64_t nb = 0;
  std::uint64_t nt = 0;
  std::uint64_t num_kernel_tasks = 0;
};

/// Per-tile head in the tiles section: u8 precision, f32 scale, u64 payload
/// bytes, unpadded.
constexpr std::size_t kTileHead =
    sizeof(std::uint8_t) + sizeof(float) + sizeof(std::uint64_t);

void put_tile_head(unsigned char* out, const linalg::TileBuffer& t) {
  const auto prec = static_cast<std::uint8_t>(t.precision());
  const float scale = t.scale();
  const auto bytes = static_cast<std::uint64_t>(t.raw_size());
  std::memcpy(out, &prec, sizeof(prec));
  std::memcpy(out + sizeof(prec), &scale, sizeof(scale));
  std::memcpy(out + sizeof(prec) + sizeof(scale), &bytes, sizeof(bytes));
}

/// The lower-triangle tiles of `a` in file order: tile rows in turn, each
/// from column 0 to the diagonal.
std::vector<const linalg::TileBuffer*> tiles_in_file_order(
    const linalg::TiledSymmetricMatrix& a) {
  std::vector<const linalg::TileBuffer*> tiles;
  const index_t nt = a.num_tile_rows();
  tiles.reserve(static_cast<std::size_t>(nt * (nt + 1) / 2));
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j <= i; ++j) tiles.push_back(&a.tile(i, j));
  }
  return tiles;
}

/// Writes the header and done-bitmap sections, then `tiles` (borrowed) as
/// the tiles section.
void commit(const std::string& path, const Header& header,
            const std::vector<std::uint8_t>& kernel_done,
            std::vector<common::IoPiece> tiles, common::SyncPolicy sync) {
  common::FramedWriter writer(kMagic);
  common::ByteWriter head;
  head.pod(header);
  writer.add_section(kSectionHeader, std::move(head));
  common::ByteWriter done;
  done.vec64(kernel_done);
  writer.add_section(kSectionDone, std::move(done));
  writer.add_section(kSectionTiles, std::move(tiles));
  writer.commit(path, sync);
}

}  // namespace

void write_cholesky_checkpoint(const std::string& path,
                               const linalg::TiledSymmetricMatrix& a,
                               const std::vector<std::uint8_t>& kernel_done,
                               common::SyncPolicy sync) {
  // The payloads are written in place; what this write allocates is the
  // tile list and heads, two gather pieces per tile in each of three lists
  // (here, FramedWriter::commit and atomic_write_file's iovecs), and the
  // header and done sections.
  const auto nt = static_cast<std::size_t>(a.num_tile_rows());
  const std::size_t num_tiles = nt * (nt + 1) / 2;
  common::ScopedCharge charge(
      "checkpoint-image",
      sizeof(Header) + sizeof(std::uint64_t) + kernel_done.size() +
          num_tiles * (sizeof(const linalg::TileBuffer*) + kTileHead +
                       3 * 2 * sizeof(common::IoPiece)));

  const std::vector<const linalg::TileBuffer*> tiles = tiles_in_file_order(a);
  std::vector<unsigned char> heads(tiles.size() * kTileHead);
  std::vector<common::IoPiece> pieces;
  pieces.reserve(2 * tiles.size());
  for (std::size_t k = 0; k < tiles.size(); ++k) {
    unsigned char* head = heads.data() + k * kTileHead;
    put_tile_head(head, *tiles[k]);
    pieces.push_back({head, kTileHead});
    pieces.push_back({tiles[k]->raw_bytes(), tiles[k]->raw_size()});
  }
  commit(path,
         Header{static_cast<std::uint64_t>(a.dim()),
                static_cast<std::uint64_t>(a.tile_size()),
                static_cast<std::uint64_t>(a.num_tile_rows()),
                static_cast<std::uint64_t>(kernel_done.size())},
         kernel_done, std::move(pieces), sync);
}

void CheckpointSnapshot::capture(const linalg::TiledSymmetricMatrix& a,
                                 unsigned threads) {
  const std::vector<const linalg::TileBuffer*> tiles = tiles_in_file_order(a);
  std::vector<std::size_t> offsets(tiles.size() + 1, 0);
  for (std::size_t k = 0; k < tiles.size(); ++k) {
    offsets[k + 1] = offsets[k] + kTileHead + tiles[k]->raw_size();
  }
  const std::size_t bytes = offsets.back();
  if (bytes > capacity_) {
    // Release the old buffer and its charge before taking the larger one.
    tiles_.reset();
    capacity_ = 0;
    charge_.reset();
    charge_ = common::ScopedCharge("checkpoint-image", bytes);
    tiles_ = std::make_unique_for_overwrite<unsigned char[]>(bytes);
    capacity_ = bytes;
  }
  size_ = bytes;
  n_ = static_cast<std::uint64_t>(a.dim());
  nb_ = static_cast<std::uint64_t>(a.tile_size());
  nt_ = static_cast<std::uint64_t>(a.num_tile_rows());
  common::parallel_for(
      0, static_cast<index_t>(tiles.size()),
      [&](index_t k) {
        const auto s = static_cast<std::size_t>(k);
        unsigned char* out = tiles_.get() + offsets[s];
        put_tile_head(out, *tiles[s]);
        std::memcpy(out + kTileHead, tiles[s]->raw_bytes(),
                    tiles[s]->raw_size());
      },
      threads);
}

void CheckpointSnapshot::write(const std::string& path,
                               const std::vector<std::uint8_t>& kernel_done,
                               common::SyncPolicy sync) const {
  commit(path,
         Header{n_, nb_, nt_, static_cast<std::uint64_t>(kernel_done.size())},
         kernel_done, {{tiles_.get(), size_}}, sync);
}

std::vector<std::uint8_t> read_cholesky_checkpoint(
    const std::string& path, linalg::TiledSymmetricMatrix& a) {
  const common::FramedFile file(path, kMagic, kWhat);

  common::ByteReader hr = file.section(kSectionHeader);
  const auto header = hr.pod<Header>();
  if (header.n != static_cast<std::uint64_t>(a.dim()) ||
      header.nb != static_cast<std::uint64_t>(a.tile_size()) ||
      header.nt != static_cast<std::uint64_t>(a.num_tile_rows())) {
    throw IoError("checkpoint shape mismatch: file holds n=" +
                  std::to_string(header.n) + " nb=" +
                  std::to_string(header.nb) + " nt=" +
                  std::to_string(header.nt) + ", matrix is n=" +
                  std::to_string(a.dim()) + " nb=" +
                  std::to_string(a.tile_size()) + " nt=" +
                  std::to_string(a.num_tile_rows()));
  }

  common::ByteReader dr = file.section(kSectionDone);
  auto kernel_done = dr.vec64<std::uint8_t>();
  if (kernel_done.size() != header.num_kernel_tasks) {
    throw IoError("checkpoint done-bitmap size " +
                  std::to_string(kernel_done.size()) +
                  " does not match its header's kernel-task count " +
                  std::to_string(header.num_kernel_tasks));
  }

  common::ByteReader tr = file.section(kSectionTiles);
  const index_t nt = a.num_tile_rows();
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      const auto prec_tag = tr.pod<std::uint8_t>();
      if (prec_tag > 2) {
        throw IoError("checkpoint tile (" + std::to_string(i) + "," +
                      std::to_string(j) + ") has invalid precision tag " +
                      std::to_string(prec_tag));
      }
      const auto prec = static_cast<linalg::Precision>(prec_tag);
      const auto scale = tr.pod<float>();
      const auto bytes = tr.pod<std::uint64_t>();
      linalg::TileBuffer& t = a.tile(i, j);
      if (t.precision() != prec) {
        // The run this checkpoint came from escalated this tile's storage;
        // rebuild the buffer at the persisted precision.
        t = linalg::TileBuffer(prec, t.rows(), t.cols());
      }
      if (bytes != static_cast<std::uint64_t>(t.raw_size())) {
        throw IoError("checkpoint tile (" + std::to_string(i) + "," +
                      std::to_string(j) + ") payload is " +
                      std::to_string(bytes) + " bytes, expected " +
                      std::to_string(t.raw_size()));
      }
      tr.raw(t.raw_bytes(), static_cast<std::size_t>(bytes));
      t.set_scale(scale);
    }
  }
  if (!tr.at_end()) {
    throw IoError("checkpoint tile section has trailing bytes (corrupt)");
  }
  return kernel_done;
}

}  // namespace exaclim::runtime
