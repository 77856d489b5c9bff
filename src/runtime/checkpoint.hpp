// Crash-consistent checkpoint/restart for the tiled Cholesky.
//
// A checkpoint is a framed artifact (common/framing.hpp: magic, total-length
// header, per-section CRC32C) written atomically, holding
//   * the matrix shape (n, nb, nt) and the kernel-task count, so a resume
//     against the wrong problem fails loudly,
//   * the completed-task frontier as a byte bitmap over the kernel-task
//     sequence (CholeskyGraph::kernel_task_ids order — stable across graph
//     rebuilds because it never counts CONVERT tasks), and
//   * every tile's payload verbatim (precision tag, FP16 scale, raw bytes),
//     so a resumed run continues from bit-identical state.
// Because checkpoints are only taken at scheduler quiescent points and the
// DAG serializes all writers of a tile, the frontier and the payloads are
// mutually consistent by construction.
//
// The tiles section goes to disk straight from the memory holding the tiles:
// a 13-byte head per tile (u8 precision, f32 scale, u64 payload bytes) from
// one small array, then the payload itself, as a gathered write. A
// CheckpointSnapshot holds the same section as one flat copy, so a commit
// can run on another thread while the factorization moves on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/io.hpp"
#include "common/memory.hpp"
#include "linalg/tile_matrix.hpp"

namespace exaclim::runtime {

/// Atomically writes a checkpoint of `a` with the given kernel-task
/// completion bitmap, reading the payloads in place: no task may write a
/// tile of `a` until this returns. `sync` is the durability policy
/// (--checkpoint-sync): Full survives power loss, Data/None trade that for
/// write throughput. The tile heads and gather lists it allocates are
/// charged against the MemoryBudget (site "checkpoint-image") first, so an
/// over-budget checkpoint fails with a structured ResourceError instead of a
/// bad_alloc abort.
void write_cholesky_checkpoint(const std::string& path,
                               const linalg::TiledSymmetricMatrix& a,
                               const std::vector<std::uint8_t>& kernel_done,
                               common::SyncPolicy sync = common::SyncPolicy::Full);

/// A copy of a matrix's tiles section, taken at a quiescent point, from
/// which a checkpoint can be committed while the live tiles keep changing.
/// The buffer is kept across capture() calls (it grows only when a tile was
/// widened) and charged to the MemoryBudget as "checkpoint-image".
class CheckpointSnapshot {
 public:
  /// Copies every tile's precision, scale and payload, over up to `threads`
  /// workers of the team. No task may write a tile of `a` meanwhile.
  void capture(const linalg::TiledSymmetricMatrix& a, unsigned threads);

  /// Atomically writes the captured tiles with `kernel_done`: the bytes
  /// write_cholesky_checkpoint would have written at capture() time.
  void write(const std::string& path,
             const std::vector<std::uint8_t>& kernel_done,
             common::SyncPolicy sync) const;

 private:
  std::uint64_t n_ = 0;
  std::uint64_t nb_ = 0;
  std::uint64_t nt_ = 0;
  std::unique_ptr<unsigned char[]> tiles_;  ///< the tiles section, verbatim
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  common::ScopedCharge charge_;
};

/// Restores tile payloads (including any escalated precisions) into `a` and
/// returns the kernel-task completion bitmap. Throws IoError on corruption,
/// truncation, version mismatch, or a shape that does not match `a`.
std::vector<std::uint8_t> read_cholesky_checkpoint(
    const std::string& path, linalg::TiledSymmetricMatrix& a);

}  // namespace exaclim::runtime
