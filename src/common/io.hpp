// Crash-consistent file I/O plus the lightweight result writers (CSV tables
// for benchmark series, PGM images for global temperature maps).
//
// All persisted artifacts go through atomic_write_file: the bytes land in a
// temporary file that is fsync'd and atomically renamed over the destination,
// so a crash mid-write leaves either the old artifact or the new one — never
// a torn hybrid. Transient I/O failures (as classified by TransientError,
// e.g. from the fault injector) are retried with bounded exponential backoff
// before an IoError propagates.
//
// The gathered form writes a list of pieces with writev straight from the
// memory that already holds them, so an artifact is never staged as one
// contiguous image. The pieces are borrowed: every byte they point at must
// stay valid and unchanged until atomic_write_file returns (a retry re-reads
// them from the start).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace exaclim::common {

/// How hard atomic_write_file pushes bytes toward the platter before the
/// rename. Atomicity (old-or-new, never torn) holds for every policy; what
/// varies is durability against power loss — the classic checkpoint
/// throughput knob (--checkpoint-sync on the CLI).
enum class SyncPolicy : std::uint8_t {
  Full = 0,  ///< fsync the file and the containing directory (default)
  Data = 1,  ///< fdatasync the file only; the rename may not survive power loss
  None = 2,  ///< no sync; fastest, durable only against process crash
};

/// Parses "full" | "data" | "none"; throws InvalidArgument otherwise.
SyncPolicy parse_sync_policy(const std::string& name);
const char* sync_policy_name(SyncPolicy sync);

/// One piece of a gathered write: `size` bytes at `data`, borrowed from the
/// caller (see the header comment for the lifetime rule).
struct IoPiece {
  const void* data = nullptr;
  std::size_t size = 0;
};

/// Atomically replaces `path` with the concatenation of `pieces`:
/// write-to-temp + sync-per-policy + rename (with the containing directory
/// fsync'd under SyncPolicy::Full so the rename itself is durable). The
/// pieces go out with writev in batches of at most IOV_MAX, resuming after
/// partial writes and EINTR; zero-length pieces are allowed. Retries the
/// whole sequence (fresh temp file) up to a small bounded number of times
/// with exponential backoff when a TransientError is raised; throws IoError
/// on hard failure or exhaustion. The fault injector sees one "open",
/// "write", "fsync" (unless SyncPolicy::None) and "rename" per attempt,
/// however many pieces there are.
void atomic_write_file(const std::string& path,
                       std::span<const IoPiece> pieces,
                       SyncPolicy sync = SyncPolicy::Full);

/// One-buffer form: atomically replaces `path` with `bytes` bytes at `data`.
void atomic_write_file(const std::string& path, const void* data,
                       std::size_t bytes,
                       SyncPolicy sync = SyncPolicy::Full);

/// Reads an entire file into memory. Throws IoError when the file cannot be
/// opened or the read comes up short.
std::vector<unsigned char> read_file_bytes(const std::string& path);

/// A file mapped read-only into the address space. The mapping is immutable
/// and shared: any number of threads may read it concurrently for the life
/// of this object with zero copies, which is how the serving layer shares
/// one frozen model across all workers. Construction throws IoError when
/// the file cannot be opened or mapped; the injector's "mmap" I/O ordinal
/// fires once per open.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;

  const unsigned char* data() const { return data_; }
  std::size_t size() const { return size_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  const unsigned char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Writes a CSV file with a header row and double-valued rows.
void write_csv(const std::string& path, const std::vector<std::string>& header,
               const std::vector<std::vector<double>>& rows);

/// Writes a grayscale PGM image of a row-major field (rows x cols), linearly
/// mapping [min(field), max(field)] to [0, 255]. Used to visually compare
/// simulated vs emulated temperature maps.
void write_pgm(const std::string& path, const std::vector<double>& field,
               index_t rows, index_t cols);

}  // namespace exaclim::common
