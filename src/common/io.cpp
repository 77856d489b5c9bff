#include "common/io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/error.hpp"
#include "common/fault.hpp"

namespace exaclim::common {

namespace {

constexpr int kMaxWriteAttempts = 4;
constexpr int kBackoffBaseUs = 100;
#ifdef IOV_MAX
constexpr std::size_t kIovMax = IOV_MAX;
#else
constexpr std::size_t kIovMax = 1024;  // POSIX minimum is 16; Linux has 1024
#endif

[[noreturn]] void throw_errno(const char* op, const std::string& path) {
  throw IoError(std::string(op) + " failed for '" + path +
                "': " + std::strerror(errno));
}

/// Writes every piece to `fd` in order, IOV_MAX pieces per writev call,
/// resuming after partial writes and EINTR.
void write_pieces(int fd, std::span<const IoPiece> pieces,
                  const std::string& tmp_path) {
  std::vector<iovec> iov;
  iov.reserve(pieces.size());
  for (const IoPiece& piece : pieces) {
    if (piece.size > 0) {
      iov.push_back({const_cast<void*>(piece.data), piece.size});
    }
  }
  std::size_t first = 0;
  while (first < iov.size()) {
    const auto count =
        static_cast<int>(std::min(iov.size() - first, kIovMax));
    const ssize_t n = ::writev(fd, iov.data() + first, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write", tmp_path);
    }
    // Drop the pieces this call finished and trim the one it cut short.
    auto done = static_cast<std::size_t>(n);
    while (first < iov.size() && done >= iov[first].iov_len) {
      done -= iov[first].iov_len;
      ++first;
    }
    if (done > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + done;
      iov[first].iov_len -= done;
    }
  }
}

/// One full write-temp + sync + rename sequence. Throws TransientError (via
/// the injector) or IoError; on success `path` holds the new bytes, durable
/// to the degree the sync policy promises.
void write_once(const std::string& path, std::span<const IoPiece> pieces,
                const std::string& tmp_path, SyncPolicy sync) {
  auto& inject = FaultInjector::instance();

  inject.on_io("open", tmp_path);
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("open", tmp_path);

  try {
    inject.on_io("write", tmp_path);
    write_pieces(fd, pieces, tmp_path);
    if (sync != SyncPolicy::None) {
      // The injector hook keeps its historical "fsync" ordinal under both
      // syncing policies so existing --faults io=N specs stay stable.
      inject.on_io("fsync", tmp_path);
      if (sync == SyncPolicy::Full) {
        if (::fsync(fd) != 0) throw_errno("fsync", tmp_path);
      } else {
        if (::fdatasync(fd) != 0) throw_errno("fdatasync", tmp_path);
      }
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::close(fd) != 0) throw_errno("close", tmp_path);

  inject.on_io("rename", path);
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    throw_errno("rename", path);
  }

  // Make the rename itself durable: fsync the containing directory.
  if (sync == SyncPolicy::Full) {
    const auto slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
      ::fsync(dfd);
      ::close(dfd);
    }
  }
}

}  // namespace

SyncPolicy parse_sync_policy(const std::string& name) {
  if (name == "full") return SyncPolicy::Full;
  if (name == "data") return SyncPolicy::Data;
  if (name == "none") return SyncPolicy::None;
  throw InvalidArgument("sync policy must be 'full', 'data' or 'none', got '" +
                        name + "'");
}

const char* sync_policy_name(SyncPolicy sync) {
  switch (sync) {
    case SyncPolicy::Full: return "full";
    case SyncPolicy::Data: return "data";
    case SyncPolicy::None: return "none";
  }
  return "?";
}

void atomic_write_file(const std::string& path, const void* data,
                       std::size_t bytes, SyncPolicy sync) {
  const IoPiece whole{data, bytes};
  atomic_write_file(path, std::span<const IoPiece>(&whole, 1), sync);
}

void atomic_write_file(const std::string& path,
                       std::span<const IoPiece> pieces, SyncPolicy sync) {
  std::ostringstream tmp;
  tmp << path << ".tmp." << ::getpid();
  const std::string tmp_path = tmp.str();

  int backoff_us = kBackoffBaseUs;
  for (int attempt = 1;; ++attempt) {
    try {
      write_once(path, pieces, tmp_path, sync);
      return;
    } catch (const TransientError& e) {
      std::remove(tmp_path.c_str());
      if (attempt >= kMaxWriteAttempts) {
        throw IoError("atomic write of '" + path + "' failed after " +
                      std::to_string(attempt) +
                      " attempts; last transient error: " + e.what());
      }
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
      backoff_us *= 2;
    } catch (...) {
      std::remove(tmp_path.c_str());
      throw;
    }
  }
}

std::vector<unsigned char> read_file_bytes(const std::string& path) {
  FaultInjector::instance().on_io("read", path);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw IoError("cannot open for reading: " + path);
  const std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<unsigned char> bytes(static_cast<std::size_t>(size));
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(bytes.data()), size)) {
    throw IoError("short read: " + path);
  }
  return bytes;
}

MappedFile::MappedFile(const std::string& path) : path_(path) {
  FaultInjector::instance().on_io("mmap", path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_errno("open", path);
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("fstat", path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (p == MAP_FAILED) {
      ::close(fd);
      throw_errno("mmap", path);
    }
    data_ = static_cast<const unsigned char*>(p);
  }
  // The mapping outlives the descriptor; closing keeps the fd table flat no
  // matter how many models a serving process holds open.
  ::close(fd);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(data_), size_);
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : path_(std::move(other.path_)), data_(other.data_), size_(other.size_) {
  other.data_ = nullptr;
  other.size_ = 0;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<unsigned char*>(data_), size_);
    }
    path_ = std::move(other.path_);
    data_ = other.data_;
    size_ = other.size_;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  return *this;
}

void write_csv(const std::string& path, const std::vector<std::string>& header,
               const std::vector<std::vector<double>>& rows) {
  std::ostringstream out;
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (i) out << ',';
    out << header[i];
  }
  out << '\n';
  out.precision(10);
  for (const auto& row : rows) {
    EXACLIM_CHECK(row.size() == header.size(), "CSV row width mismatch");
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) out << ',';
      out << row[i];
    }
    out << '\n';
  }
  const std::string text = out.str();
  atomic_write_file(path, text.data(), text.size());
}

void write_pgm(const std::string& path, const std::vector<double>& field,
               index_t rows, index_t cols) {
  EXACLIM_CHECK(rows > 0 && cols > 0, "PGM dimensions must be positive");
  EXACLIM_CHECK(static_cast<index_t>(field.size()) == rows * cols,
                "field size must equal rows*cols");
  const auto [mn_it, mx_it] = std::minmax_element(field.begin(), field.end());
  const double mn = *mn_it;
  const double span = (*mx_it > mn) ? (*mx_it - mn) : 1.0;

  std::ostringstream out;
  out << "P5\n" << cols << ' ' << rows << "\n255\n";
  std::vector<unsigned char> bytes(field.size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(255.0 * (field[i] - mn) / span);
  }
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  const std::string blob = out.str();
  atomic_write_file(path, blob.data(), blob.size());
}

}  // namespace exaclim::common
