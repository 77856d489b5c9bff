// Checksummed, length-framed binary artifact container.
//
// Layout on disk:
//   [magic: 8 bytes][total_length: u64, bytes after this field]
//   then one or more sections:
//   [tag: u32][payload_length: u64][crc32c(payload): u32][payload bytes]
//
// Readers validate, in order: magic (a 7-byte family match with a differing
// trailing version byte is reported as an unsupported version, so old readers
// and old files fail with an actionable message instead of garbage), total
// length against the real file size (truncation and trailing garbage both
// caught up front), each section's length against the bytes remaining, and
// each payload's CRC32C. Every failure is an IoError naming the byte offset.
//
// Writers never assemble the file in memory: commit() checksums each
// section where its payload lives and hands atomic_write_file one gather
// list (file head, then each section head and its payload pieces), so
// artifacts are crash-consistent as well as self-validating. A section
// payload is either an owned ByteWriter (moved in) or a list of borrowed
// pieces. Borrowed pieces follow common/io.hpp's lifetime rule: the bytes
// they point at must stay valid and unchanged until commit() returns.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "common/io.hpp"

namespace exaclim::common {

/// Append-only byte buffer with POD helpers; the unit of a section payload.
class ByteWriter {
 public:
  void raw(const void* data, std::size_t bytes);

  template <typename T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    raw(&value, sizeof(T));
  }

  /// Writes a u64 element count followed by the elements.
  template <typename T>
  void vec64(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    pod(static_cast<std::uint64_t>(v.size()));
    raw(v.data(), v.size() * sizeof(T));
  }

  const std::vector<unsigned char>& bytes() const { return buf_; }

 private:
  std::vector<unsigned char> buf_;
};

/// Bounds-checked reader over a byte span. Out-of-bounds reads throw IoError
/// naming the artifact and the offending offset.
class ByteReader {
 public:
  /// `what` names the artifact in error messages; `base_offset` is the span's
  /// position in the file so reported offsets are absolute.
  ByteReader(const unsigned char* data, std::size_t bytes, std::string what,
             std::size_t base_offset = 0);

  void raw(void* out, std::size_t bytes);

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    raw(&value, sizeof(T));
    return value;
  }

  /// Reads a u64 element count followed by the elements; the count is
  /// validated against the bytes remaining before any allocation.
  template <typename T>
  std::vector<T> vec64() {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto n = pod<std::uint64_t>();
    check_remaining(n, sizeof(T));
    std::vector<T> v(static_cast<std::size_t>(n));
    raw(v.data(), v.size() * sizeof(T));
    return v;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool at_end() const { return pos_ == size_; }
  std::size_t offset() const { return base_ + pos_; }

  /// Throws IoError unless `count * elem_size` bytes remain.
  void check_remaining(std::uint64_t count, std::size_t elem_size) const;

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::string what_;
  std::size_t base_;
};

/// Collects the sections of a framed artifact; commit() writes it
/// atomically, straight from the section payloads.
class FramedWriter {
 public:
  /// `magic` must be exactly 8 characters.
  explicit FramedWriter(const std::string& magic);

  /// Adds a section whose payload the writer owns (move the buffer in).
  void add_section(std::uint32_t tag, ByteWriter payload);

  /// Adds a section whose payload is the concatenation of `pieces`. The
  /// pieces are borrowed, not copied: the memory they point at must stay
  /// valid and unchanged until commit() returns.
  void add_section(std::uint32_t tag, std::vector<IoPiece> pieces);

  /// Computes the total length and each section's CRC32C, then atomically
  /// writes the artifact with the given durability policy (see
  /// common/io.hpp).
  void commit(const std::string& path, SyncPolicy sync = SyncPolicy::Full) const;

 private:
  std::string magic_;
  /// Exactly one of `owned` and `borrowed` holds the payload; the other
  /// stays empty.
  struct Section {
    std::uint32_t tag;
    ByteWriter owned;
    std::vector<IoPiece> borrowed;
  };
  std::vector<Section> sections_;
};

/// Reads and fully validates a framed artifact; sections are then available
/// by tag in file order. The file's bytes are held once, and each section
/// is a view into them.
class FramedFile {
 public:
  /// Loads `path`, expecting `magic` (8 chars). `what` names the artifact
  /// kind in error messages ("emulator model", "checkpoint", ...).
  FramedFile(const std::string& path, const std::string& magic,
             std::string what);

  /// Returns a reader over the payload of the first section with `tag`
  /// (valid for the life of this object); throws IoError if absent.
  ByteReader section(std::uint32_t tag) const;
  bool has_section(std::uint32_t tag) const;

 private:
  struct Section {
    std::uint32_t tag;
    std::size_t offset;  // payload offset in the file
    std::size_t size;
  };
  std::vector<unsigned char> file_;
  std::vector<Section> sections_;
  std::string what_;
};

/// Memory-mapped framed artifact with lazy per-section validation.
///
/// Construction maps the file read-only and validates only the frame
/// structure (magic, total length, section headers and extents). Each
/// payload's CRC32C is checked on the *first touch* of that section — the
/// first section()/section_data() call for its tag — behind a once-guard
/// shared by all threads. Opening a multi-gigabyte model is therefore
/// O(section count), a serving process never pays for (or trips over)
/// corruption in a section it does not read, and every reader thereafter
/// gets the mapped bytes with zero copies. A checksum mismatch throws
/// IoError naming the payload's absolute byte offset — on the first touch
/// and on every touch after (the verdict is cached, the throw repeats).
/// Validation uses an explicit atomic state machine rather than
/// std::call_once: a throwing call_once callable deadlocks later callers
/// under TSan's pthread_once interceptor, which never sees the reset.
class MappedFramedFile {
 public:
  MappedFramedFile(const std::string& path, const std::string& magic,
                   std::string what);

  bool has_section(std::uint32_t tag) const;

  /// Payload bytes of the first section with `tag`, CRC-validated on first
  /// touch. The pointer aliases the mapping: valid for the life of this
  /// object, immutable, safe to share across threads.
  const unsigned char* section_data(std::uint32_t tag) const;
  std::size_t section_size(std::uint32_t tag) const;
  /// Absolute file offset of the payload, for error messages.
  std::size_t section_offset(std::uint32_t tag) const;

  /// Bounds-checked reader over the mapped payload (validated on first
  /// touch); reported offsets are absolute file offsets.
  ByteReader section(std::uint32_t tag) const;

  const std::string& path() const { return map_.path(); }

 private:
  // Sections hold an atomic (immovable), so they live behind unique_ptr.
  struct Section {
    std::uint32_t tag = 0;
    std::uint32_t crc = 0;
    std::size_t offset = 0;
    std::size_t size = 0;
    // kUnchecked -> kValid | kCorrupt, written once under check_mu_; the
    // fast path is a single acquire load.
    mutable std::atomic<std::uint8_t> state{0};
  };
  static constexpr std::uint8_t kUnchecked = 0;
  static constexpr std::uint8_t kValid = 1;
  static constexpr std::uint8_t kCorrupt = 2;

  const Section& find(std::uint32_t tag) const;
  const Section& validated(std::uint32_t tag) const;

  MappedFile map_;
  std::string what_;
  std::vector<std::unique_ptr<Section>> sections_;
  mutable std::mutex check_mu_;  ///< serializes first-touch CRC walks
};

}  // namespace exaclim::common
