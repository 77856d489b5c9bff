#include "common/framing.hpp"

#include <cstring>
#include <span>
#include <sstream>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/io.hpp"

namespace exaclim::common {

namespace {

constexpr std::size_t kMagicLen = 8;
/// File head: magic, then the u64 count of bytes after it.
constexpr std::size_t kFileHeader = kMagicLen + sizeof(std::uint64_t);
/// Section head: u32 tag, u64 payload length, u32 CRC32C of the payload.
constexpr std::size_t kSectionHeader =
    sizeof(std::uint32_t) + sizeof(std::uint64_t) + sizeof(std::uint32_t);

[[noreturn]] void fail(const std::string& what, std::size_t offset,
                       const std::string& detail) {
  std::ostringstream os;
  os << "corrupt " << what << ": " << detail << " (at byte offset " << offset
     << ")";
  throw IoError(os.str());
}

/// Structural description of one section, shared by the eager and the
/// mapped readers. The CRC is recorded, not checked, at this stage.
struct RawSection {
  std::uint32_t tag = 0;
  std::uint32_t crc = 0;
  std::size_t offset = 0;  // payload offset in the file
  std::size_t size = 0;
};

/// Validates the frame structure — magic (with the version-bump diagnosis),
/// total length against the real size, each section header and extent — and
/// returns the section table. Payload CRCs are *not* checked here; the
/// eager FramedFile checks them all up front, the mapped reader defers each
/// to first touch.
std::vector<RawSection> parse_frame(const unsigned char* file,
                                    std::size_t file_size,
                                    const std::string& magic,
                                    const std::string& what) {
  EXACLIM_CHECK(magic.size() == kMagicLen, "artifact magic must be 8 bytes");
  if (file_size < kFileHeader) {
    fail(what, file_size, "file too small to hold the artifact header");
  }
  if (std::memcmp(file, magic.data(), kMagicLen) != 0) {
    // Same 7-byte family with a different trailing version byte means the
    // format evolved; report that instead of a generic corruption error.
    if (std::memcmp(file, magic.data(), kMagicLen - 1) == 0) {
      std::ostringstream os;
      os << "unsupported " << what << " format version '"
         << std::string(reinterpret_cast<const char*>(file), kMagicLen)
         << "' (this build reads '" << magic
         << "'); re-create the artifact with a matching build";
      throw IoError(os.str());
    }
    fail(what, 0, "bad magic (not a " + what + " file)");
  }

  std::uint64_t total = 0;
  std::memcpy(&total, file + kMagicLen, sizeof(total));
  const std::size_t body_start = kFileHeader;
  if (total != file_size - body_start) {
    fail(what, kMagicLen,
         "framed length " + std::to_string(total) + " does not match the " +
             std::to_string(file_size - body_start) +
             " bytes present (truncated or trailing garbage)");
  }

  std::vector<RawSection> sections;
  std::size_t pos = body_start;
  while (pos < file_size) {
    if (file_size - pos < kSectionHeader) {
      fail(what, pos, "truncated section header");
    }
    RawSection s;
    std::memcpy(&s.tag, file + pos, sizeof(s.tag));
    std::uint64_t len = 0;
    std::memcpy(&len, file + pos + sizeof(std::uint32_t), sizeof(len));
    std::memcpy(&s.crc, file + pos + sizeof(std::uint32_t) + sizeof(len),
                sizeof(s.crc));
    pos += kSectionHeader;
    if (len > file_size - pos) {
      fail(what, pos,
           "section 0x" + std::to_string(s.tag) + " claims " +
               std::to_string(len) + " bytes but only " +
               std::to_string(file_size - pos) + " remain");
    }
    s.offset = pos;
    s.size = static_cast<std::size_t>(len);
    pos += s.size;
    sections.push_back(s);
  }
  return sections;
}

[[noreturn]] void missing_section(const std::string& what, std::uint32_t tag) {
  std::ostringstream os;
  os << "corrupt " << what << ": required section 0x" << std::hex << tag
     << " is missing";
  throw IoError(os.str());
}

}  // namespace

void ByteWriter::raw(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  buf_.insert(buf_.end(), p, p + bytes);
}

ByteReader::ByteReader(const unsigned char* data, std::size_t bytes,
                       std::string what, std::size_t base_offset)
    : data_(data), size_(bytes), what_(std::move(what)), base_(base_offset) {}

void ByteReader::raw(void* out, std::size_t bytes) {
  if (bytes > size_ - pos_) {
    fail(what_, base_ + pos_,
         "need " + std::to_string(bytes) + " bytes but only " +
             std::to_string(size_ - pos_) + " remain in section");
  }
  std::memcpy(out, data_ + pos_, bytes);
  pos_ += bytes;
}

void ByteReader::check_remaining(std::uint64_t count,
                                 std::size_t elem_size) const {
  const std::size_t left = size_ - pos_;
  if (count > left / elem_size) {
    fail(what_, base_ + pos_,
         "element count " + std::to_string(count) + " (x" +
             std::to_string(elem_size) + " bytes) exceeds the " +
             std::to_string(left) + " bytes remaining in section");
  }
}

FramedWriter::FramedWriter(const std::string& magic) : magic_(magic) {
  EXACLIM_CHECK(magic.size() == kMagicLen, "artifact magic must be 8 bytes");
}

void FramedWriter::add_section(std::uint32_t tag, ByteWriter payload) {
  sections_.push_back({tag, std::move(payload), {}});
}

void FramedWriter::add_section(std::uint32_t tag,
                               std::vector<IoPiece> pieces) {
  sections_.push_back({tag, ByteWriter(), std::move(pieces)});
}

void FramedWriter::commit(const std::string& path, SyncPolicy sync) const {
  // Each section's payload as gather pieces: its borrowed list, or one
  // piece over its owned buffer (`owned` is reserved, so views stay valid).
  std::vector<IoPiece> owned;
  owned.reserve(sections_.size());
  std::vector<std::span<const IoPiece>> payloads;
  for (const Section& s : sections_) {
    if (s.borrowed.empty()) {
      owned.push_back({s.owned.bytes().data(), s.owned.bytes().size()});
      payloads.emplace_back(&owned.back(), 1);
    } else {
      payloads.emplace_back(s.borrowed);
    }
  }

  // The file head and every section head go into one small buffer, built
  // in full before any piece points into it. Each CRC32C chains over the
  // section's pieces, as if they were one buffer.
  std::uint64_t total = 0;
  for (const auto& pieces : payloads) {
    total += kSectionHeader;
    for (const IoPiece& p : pieces) total += p.size;
  }
  ByteWriter heads;
  heads.raw(magic_.data(), kMagicLen);
  heads.pod(total);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    for (const IoPiece& p : payloads[i]) {
      size += p.size;
      crc = crc32c(p.data, p.size, crc);
    }
    heads.pod(sections_[i].tag);
    heads.pod(size);
    heads.pod(crc);
  }

  const unsigned char* head = heads.bytes().data();
  std::vector<IoPiece> gather{{head, kFileHeader}};
  head += kFileHeader;
  for (const auto& pieces : payloads) {
    gather.push_back({head, kSectionHeader});
    head += kSectionHeader;
    gather.insert(gather.end(), pieces.begin(), pieces.end());
  }
  atomic_write_file(path, gather, sync);
}

FramedFile::FramedFile(const std::string& path, const std::string& magic,
                       std::string what)
    : file_(read_file_bytes(path)), what_(std::move(what)) {
  for (const RawSection& raw : parse_frame(file_.data(), file_.size(), magic,
                                           what_)) {
    const std::uint32_t actual = crc32c(file_.data() + raw.offset, raw.size);
    if (actual != raw.crc) {
      fail(what_, raw.offset, "section checksum mismatch (payload corrupted)");
    }
    sections_.push_back({raw.tag, raw.offset, raw.size});
  }
}

bool FramedFile::has_section(std::uint32_t tag) const {
  for (const auto& s : sections_) {
    if (s.tag == tag) return true;
  }
  return false;
}

ByteReader FramedFile::section(std::uint32_t tag) const {
  for (const auto& s : sections_) {
    if (s.tag == tag) {
      return ByteReader(file_.data() + s.offset, s.size, what_, s.offset);
    }
  }
  missing_section(what_, tag);
}

MappedFramedFile::MappedFramedFile(const std::string& path,
                                   const std::string& magic, std::string what)
    : map_(path), what_(std::move(what)) {
  for (const RawSection& raw :
       parse_frame(map_.data(), map_.size(), magic, what_)) {
    auto s = std::make_unique<Section>();
    s->tag = raw.tag;
    s->crc = raw.crc;
    s->offset = raw.offset;
    s->size = raw.size;
    sections_.push_back(std::move(s));
  }
}

bool MappedFramedFile::has_section(std::uint32_t tag) const {
  for (const auto& s : sections_) {
    if (s->tag == tag) return true;
  }
  return false;
}

const MappedFramedFile::Section& MappedFramedFile::find(
    std::uint32_t tag) const {
  for (const auto& s : sections_) {
    if (s->tag == tag) return *s;
  }
  missing_section(what_, tag);
}

const MappedFramedFile::Section& MappedFramedFile::validated(
    std::uint32_t tag) const {
  const Section& s = find(tag);
  // The CRC walk runs at most once; its verdict is cached so a corrupt
  // section fails every touch, not just the first. (Not std::call_once: a
  // throwing callable leaves TSan's pthread_once interceptor convinced the
  // init is still in flight, deadlocking every later caller.)
  std::uint8_t state = s.state.load(std::memory_order_acquire);
  if (state == kUnchecked) {
    std::lock_guard<std::mutex> lock(check_mu_);
    state = s.state.load(std::memory_order_acquire);
    if (state == kUnchecked) {
      const std::uint32_t actual = crc32c(map_.data() + s.offset, s.size);
      state = actual == s.crc ? kValid : kCorrupt;
      s.state.store(state, std::memory_order_release);
    }
  }
  if (state == kCorrupt) {
    fail(what_, s.offset, "section checksum mismatch (payload corrupted)");
  }
  return s;
}

const unsigned char* MappedFramedFile::section_data(std::uint32_t tag) const {
  return map_.data() + validated(tag).offset;
}

std::size_t MappedFramedFile::section_size(std::uint32_t tag) const {
  return validated(tag).size;
}

std::size_t MappedFramedFile::section_offset(std::uint32_t tag) const {
  return find(tag).offset;
}

ByteReader MappedFramedFile::section(std::uint32_t tag) const {
  const Section& s = validated(tag);
  return ByteReader(map_.data() + s.offset, s.size, what_, s.offset);
}

}  // namespace exaclim::common
