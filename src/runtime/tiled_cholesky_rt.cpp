#include "runtime/tiled_cholesky_rt.hpp"

#include <algorithm>
#include <cmath>
#include <future>
#include <utility>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "common/fault.hpp"
#include "common/fpenv.hpp"
#include "common/parallel.hpp"
#include "linalg/kernels.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/failure.hpp"

namespace exaclim::runtime {

using linalg::ConversionPlacement;
using linalg::Precision;
using linalg::TileBuffer;

namespace {

/// Per-diagonal-tile recovery state shared between a POTRF body and its
/// recover hook. `snapshot` holds the pre-factorization tile values in
/// double (empty until first needed); `jitters` counts ladder rungs taken.
struct PotrfFtState {
  std::vector<double> snapshot;
  int jitters = 0;
};

/// Effect-metadata precision of a tile's storage plane.
EffectPrec to_effect_prec(Precision p) {
  switch (p) {
    case Precision::FP64: return EffectPrec::F64;
    case Precision::FP32: return EffectPrec::F32;
    case Precision::FP16: return EffectPrec::F16;
  }
  return EffectPrec::Unspecified;
}

}  // namespace

CholeskyGraph::Repr CholeskyGraph::operand_repr(Precision out) {
  switch (out) {
    case Precision::FP64: return Repr::F64;
    case Precision::FP32: return Repr::F32;
    case Precision::FP16: return Repr::F16P;
  }
  return Repr::F64;
}

bool CholeskyGraph::stored_as(const TileBuffer& t, Repr repr) {
  return operand_repr(t.precision()) == repr;  // FP16 storage IS F16P
}

TilePlane CholeskyGraph::repr_plane(Repr repr) {
  switch (repr) {
    case Repr::F64: return TilePlane::CopyF64;
    case Repr::F32: return TilePlane::CopyF32;
    case Repr::F16P: return TilePlane::CopyF16;
  }
  return TilePlane::None;
}

void CholeskyGraph::convert(const TileBuffer& t, Repr repr, Copy& out) {
  const index_t count = t.count();
  const auto size = static_cast<std::size_t>(count);
  switch (repr) {
    case Repr::F64:
      out.d.resize(size);
      t.store_f64(out.d.data());
      break;
    case Repr::F32:
      out.f.resize(size);
      t.to_f32(out.f.data());
      break;
    case Repr::F16P:
      // Scaled narrowing of an FP64/FP32 tile into packed-half operand form
      // (FP16 storage is delivered as is). The scale is chosen here, when
      // the conversion executes.
      out.h.resize(size);
      out.hscale =
          t.precision() == Precision::FP64
              ? linalg::convert_f64_to_f16_scaled(t.f64(), out.h.data(), count)
              : linalg::convert_f32_to_f16_scaled(t.f32(), out.h.data(), count);
      break;
  }
}

CholeskyGraph::OperandView CholeskyGraph::fetch(const TileBuffer& t,
                                                Repr repr, const Copy* shared,
                                                Copy& scratch) {
  if (shared == nullptr) {
    if (stored_as(t, repr)) {
      switch (repr) {
        case Repr::F64: return {.d = t.f64()};
        case Repr::F32: return {.f = t.f32()};
        case Repr::F16P: return {.h = t.f16(), .hscale = t.scale()};
      }
    }
    convert(t, repr, scratch);
    shared = &scratch;
  }
  return {.d = shared->d.empty() ? nullptr : shared->d.data(),
          .f = shared->f.empty() ? nullptr : shared->f.data(),
          .h = shared->h.empty() ? nullptr : shared->h.data(),
          .hscale = shared->hscale};
}

const CholeskyGraph::CopySlot& CholeskyGraph::ensure_convert(index_t i,
                                                             index_t j,
                                                             Repr repr,
                                                             index_t k) {
  auto& owned = copies_[std::make_tuple(i, j, static_cast<int>(repr))];
  if (owned == nullptr) owned = std::make_unique<CopySlot>();
  CopySlot& slot = *owned;
  if (slot.handle.valid()) return slot;
  const TileBuffer& t = a_.tile(i, j);
  const index_t count = t.count();
  const TilePlane plane = repr_plane(repr);
  slot.handle = graph_.create_handle(
      "copy(" + std::to_string(i) + "," + std::to_string(j) + ")",
      TileCoord{i, j, plane, plane_precision(plane)});
  // The converted buffer is allocated INSIDE the task body, not at graph
  // build time: the executing worker (usually the consumers' affinity home)
  // first-touches the pages, so on a NUMA machine the copy lands on the
  // node that will read it. Consumers are ordered after the CONVERT task by
  // the inferred RAW edge, so they never observe the vector mid-resize.
  // A CONVERT to FP32 or packed half runs flush-to-zero, like the
  // low-precision tasks that consume its copy (common/fpenv.hpp).
  std::function<void()> body = [&t, repr, buffer = &slot.buffer] {
    const common::FlushDenormalsScope ftz(repr != Repr::F64);
    convert(t, repr, *buffer);
  };
  if (ft_.integrity_checks) {
    // A CONVERT's output is a private copy buffer (not checksummed), but the
    // tile it reads must still be intact.
    body = [this, i, j, inner = std::move(body)] {
      verify_tile_crc(i, j, "read");
      inner();
    };
  }
  Task task;
  task.fn = std::move(body);
  task.name = "CONVERT(" + std::to_string(i) + "," + std::to_string(j) + ")";
  task.kind = TaskKind::Convert;
  task.home_row = i;
  task.home_col = j;
  task.priority = static_cast<int>(3 * (a_.num_tile_rows() - k));
  task.weight = static_cast<double>(count);
  task.accesses = {{tile_handle(i, j), Access::Read},
                   {slot.handle, Access::Write}};
  task.effects = {
      {i, j, Access::Read, TilePlane::Storage, to_effect_prec(t.precision())},
      {i, j, Access::Write, plane, plane_precision(plane)}};
  graph_.submit(std::move(task));
  ++convert_tasks_;
  element_conversions_ += static_cast<double>(count);
  return slot;
}

CholeskyGraph::CholeskyGraph(linalg::TiledSymmetricMatrix& a,
                             ConversionPlacement placement,
                             const FaultToleranceOptions& ft)
    : a_(a), placement_(placement), ft_(ft) {
  const index_t nt = a_.num_tile_rows();
  const auto num_tiles = static_cast<std::size_t>(nt * (nt + 1) / 2);
  tile_handles_.reserve(num_tiles);
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j <= i; ++j) {
      // Tile metadata feeds the static DAG verifier: the storage plane
      // carries the tile's precision as captured at build time (recovery may
      // escalate it later; the declared contract describes the built DAG).
      tile_handles_.push_back(graph_.create_handle(
          "tile(" + std::to_string(i) + "," + std::to_string(j) + ")",
          TileCoord{i, j, TilePlane::Storage,
                    to_effect_prec(a_.tile(i, j).precision())}));
    }
  }
  if (ft_.integrity_checks) {
    tile_crcs_ = std::vector<std::atomic<std::uint32_t>>(num_tiles);
    tile_crc_valid_ = std::vector<std::atomic<std::uint8_t>>(num_tiles);
    for (std::size_t t = 0; t < num_tiles; ++t) {
      tile_crcs_[t].store(0, std::memory_order_relaxed);
      tile_crc_valid_[t].store(0, std::memory_order_relaxed);
    }
  }
  build();
}

void CholeskyGraph::record_tile_crc(index_t i, index_t j) {
  const auto idx = static_cast<std::size_t>(i * (i + 1) / 2 + j);
  const TileBuffer& t = a_.tile(i, j);
  tile_crcs_[idx].store(common::crc32c(t.raw_bytes(), t.raw_size()),
                        std::memory_order_release);
  tile_crc_valid_[idx].store(1, std::memory_order_release);
}

void CholeskyGraph::verify_tile_crc(index_t i, index_t j,
                                    const char* when) const {
  const auto idx = static_cast<std::size_t>(i * (i + 1) / 2 + j);
  if (tile_crc_valid_[idx].load(std::memory_order_acquire) == 0) return;
  const TileBuffer& t = a_.tile(i, j);
  const std::uint32_t actual = common::crc32c(t.raw_bytes(), t.raw_size());
  if (actual != tile_crcs_[idx].load(std::memory_order_acquire)) {
    throw TaskFailure(
        "INTEGRITY", i, j, 1, "precision " + linalg::precision_name(t.precision()),
        std::string("tile payload checksum mismatch detected on ") + when +
            " (bit corruption)");
  }
}

void CholeskyGraph::seed_tile_checksums() {
  const index_t nt = a_.num_tile_rows();
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j <= i; ++j) record_tile_crc(i, j);
  }
}

void CholeskyGraph::verify_tile_checksums() const {
  const index_t nt = a_.num_tile_rows();
  for (index_t i = 0; i < nt; ++i) {
    for (index_t j = 0; j <= i; ++j) verify_tile_crc(i, j, "the final sweep");
  }
}

std::function<void()> CholeskyGraph::guard(
    std::function<void()> body, TaskKind kind,
    std::vector<std::pair<index_t, index_t>> reads, index_t out_i,
    index_t out_j, std::uint64_t salt) {
  if (!ft_.enabled && !ft_.integrity_checks) return body;
  return [this, body = std::move(body), kind, reads = std::move(reads), out_i,
          out_j, salt] {
    // Context makes any NumericalError out of the kernels name the tile.
    const linalg::ScopedTileContext ctx(out_i, out_j,
                                        a_.tile(out_i, out_j).precision());
    if (!ft_.integrity_checks) {
      body();
      return;
    }
    for (const auto& [ri, rj] : reads) verify_tile_crc(ri, rj, "read");
    verify_tile_crc(out_i, out_j, "update");
    body();
    record_tile_crc(out_i, out_j);
    // Post-write corruption window: the recorded CRC predates the flip, so
    // the next reader (or the final sweep) detects it — corruption can slip
    // through silently only if nothing ever checks, which the sweep forbids.
    TileBuffer& out = a_.tile(out_i, out_j);
    common::FaultInjector::instance().maybe_bitflip(
        salt, task_kind_name(kind), out_i, out_j, out.raw_bytes(),
        out.raw_size());
  };
}

void CholeskyGraph::build() {
  const index_t nt = a_.num_tile_rows();
  const bool sender = placement_ == ConversionPlacement::Sender;

  // Handle, declared read effect and shared copy (sender placement only) a
  // consumer uses for tile (i,j) delivered in `repr`, creating a sender-side
  // CONVERT task when needed. In receiver placement the consumer converts
  // privately, so the tile handle (storage plane) is used and the conversion
  // cost is accounted here (it happens inside the consumer).
  struct Operand {
    DataHandle handle;
    TileEffect effect;
    const Copy* copy = nullptr;
  };
  auto operand_for = [&](index_t i, index_t j, Repr repr,
                         index_t k) -> Operand {
    const TileBuffer& t = a_.tile(i, j);
    const bool direct = stored_as(t, repr);
    if (!direct && sender) {
      const CopySlot& slot = ensure_convert(i, j, repr, k);
      const TilePlane plane = repr_plane(repr);
      return {slot.handle,
              {i, j, Access::Read, plane, plane_precision(plane)},
              &slot.buffer};
    }
    if (!direct) element_conversions_ += static_cast<double>(t.count());
    return {tile_handle(i, j),
            {i, j, Access::Read, TilePlane::Storage,
             to_effect_prec(t.precision())}};
  };

  for (index_t k = 0; k < nt; ++k) {
    const int prio_base = static_cast<int>(4 * (nt - k));
    // POTRF(k,k) — always effectively DP (policies keep diagonals fp64).
    {
      TileBuffer& t = a_.tile(k, k);
      Task task;
      task.name = "POTRF(" + std::to_string(k) + ")";
      task.kind = TaskKind::Potrf;
      task.home_row = k;
      task.home_col = k;
      task.priority = prio_base + 3;
      const index_t n = t.rows();
      task.weight = static_cast<double>(n) * static_cast<double>(n) *
                    static_cast<double>(n) / 3.0;
      std::function<void()> body = [&t, n] {
        if (t.precision() == Precision::FP64) {
          linalg::potrf_lower_f64(t.f64(), n);
        } else {
          std::vector<double> scratch(static_cast<std::size_t>(n * n));
          t.store_f64(scratch.data());
          linalg::potrf_lower_f64(scratch.data(), n);
          t.load_f64(scratch.data());
        }
      };
      if (ft_.enabled) {
        auto st = std::make_shared<PotrfFtState>();
        // Capture the pre-factorization values before the in-place kernel
        // can scramble them; the snapshot is what every recovery rung
        // restores from. An empty snapshot in recover() means the body never
        // started (fault injected pre-body), so the tile itself is pristine.
        body = [&t, n, st, inner = std::move(body)] {
          if (st->snapshot.empty()) {
            st->snapshot.resize(static_cast<std::size_t>(n * n));
            t.store_f64(st->snapshot.data());
          }
          inner();
        };
        task.recover = [this, &t, n, k, st](int /*attempt*/,
                                            const std::exception& e) -> bool {
          // Only numerical failures have a numerical remedy; anything else
          // (bad_alloc, integrity failures, logic errors) must propagate.
          if (dynamic_cast<const NumericalError*>(&e) == nullptr) return false;
          if (st->snapshot.empty()) {
            st->snapshot.resize(static_cast<std::size_t>(n * n));
            t.store_f64(st->snapshot.data());
          }
          if (t.precision() != Precision::FP64) {
            // Escalation ladder stage 1: widen the storage (f16 -> f32 ->
            // f64) and restore the original values at the new precision.
            t.convert_to(t.precision() == Precision::FP16 ? Precision::FP32
                                                          : Precision::FP64);
            t.load_f64(st->snapshot.data());
            precision_escalations_.fetch_add(1, std::memory_order_relaxed);
            if (ft_.integrity_checks) record_tile_crc(k, k);
            return true;
          }
          // Stage 2: a jitter ladder on this tile — restore the snapshot
          // and add a diagonal shift that grows x10 per rung, scaled to the
          // tile's diagonal magnitude.
          if (st->jitters >= kTileJitterRungs) return false;
          double diag_scale = 0.0;
          for (index_t r = 0; r < n; ++r) {
            diag_scale = std::max(
                diag_scale,
                std::abs(st->snapshot[static_cast<std::size_t>(r * n + r)]));
          }
          if (diag_scale <= 0.0) diag_scale = 1.0;
          const double eps = ft_.jitter_base * diag_scale *
                             std::pow(10.0, static_cast<double>(st->jitters));
          ++st->jitters;
          std::vector<double> work = st->snapshot;
          for (index_t r = 0; r < n; ++r) {
            work[static_cast<std::size_t>(r * n + r)] += eps;
          }
          t.load_f64(work.data());
          jitter_escalations_.fetch_add(1, std::memory_order_relaxed);
          if (ft_.integrity_checks) record_tile_crc(k, k);
          return true;
        };
        task.context = [&t] {
          return "precision " + linalg::precision_name(t.precision());
        };
      }
      task.fn = guard(std::move(body), TaskKind::Potrf, {}, k, k,
                      static_cast<std::uint64_t>(kernel_ids_.size()));
      task.accesses = {{tile_handle(k, k), Access::ReadWrite}};
      task.effects = {{k, k, Access::ReadWrite, TilePlane::Storage,
                       to_effect_prec(t.precision())}};
      kernel_ids_.push_back(graph_.submit(std::move(task)));
    }

    for (index_t i = k + 1; i < nt; ++i) {
      // TRSM(i,k): X * L^T = B in the precision class of tile (i,k).
      TileBuffer& b = a_.tile(i, k);
      const Precision bp = b.precision();
      const Repr l_repr = (bp == Precision::FP64) ? Repr::F64 : Repr::F32;
      const Operand l_operand = operand_for(k, k, l_repr, k);
      const TileBuffer& diag = a_.tile(k, k);
      Task task;
      task.name = "TRSM(" + std::to_string(i) + "," + std::to_string(k) + ")";
      task.kind = TaskKind::Trsm;
      task.home_row = i;
      task.home_col = k;
      task.priority = prio_base + 2;
      const index_t m = b.rows();
      const index_t n = b.cols();
      task.weight = static_cast<double>(m) * static_cast<double>(n) *
                    static_cast<double>(n);
      // FP32/FP16 task bodies (TRSM, SYRK, GEMM), the receiver-side operand
      // conversion included, run flush-to-zero; FP64 ones keep gradual
      // underflow (common/fpenv.hpp).
      std::function<void()> body = [&b, &diag, l_copy = l_operand.copy, m, n,
                                    bp, l_repr] {
        Copy scratch;
        const common::FlushDenormalsScope ftz(bp != Precision::FP64);
        const OperandView l = fetch(diag, l_repr, l_copy, scratch);
        switch (bp) {
          case Precision::FP64:
            linalg::trsm_rlt_f64(l.d, b.f64(), m, n);
            break;
          case Precision::FP32:
            linalg::trsm_rlt_f32(l.f, b.f32(), m, n);
            break;
          case Precision::FP16: {
            // Packed-half solve: consumes the stored halves + scale
            // directly; the repack picks a fresh tile scale.
            std::vector<float> x(static_cast<std::size_t>(m * n));
            linalg::trsm_rlt_f16(l.f, b.f16(), b.scale(), x.data(), m, n);
            b.from_f32(x.data());
            break;
          }
        }
      };
      task.fn = guard(std::move(body), TaskKind::Trsm, {{k, k}}, i, k,
                      static_cast<std::uint64_t>(kernel_ids_.size()));
      task.accesses = {{l_operand.handle, Access::Read},
                       {tile_handle(i, k), Access::ReadWrite}};
      task.effects = {l_operand.effect,
                      {i, k, Access::ReadWrite, TilePlane::Storage,
                       to_effect_prec(bp)}};
      kernel_ids_.push_back(graph_.submit(std::move(task)));
    }

    for (index_t i = k + 1; i < nt; ++i) {
      // SYRK(i,k): C(i,i) -= A(i,k) A(i,k)^T in the diagonal's precision.
      {
        TileBuffer& c = a_.tile(i, i);
        TileBuffer& in = a_.tile(i, k);
        const Repr repr = operand_repr(c.precision());
        const Operand in_operand = operand_for(i, k, repr, k);
        Task task;
        task.name = "SYRK(" + std::to_string(i) + "," + std::to_string(k) + ")";
        task.kind = TaskKind::Syrk;
        task.home_row = i;
        task.home_col = i;
        task.priority = prio_base + 1;
        const index_t m = c.rows();
        const index_t kk = in.cols();
        task.weight = static_cast<double>(m) * static_cast<double>(m) *
                      static_cast<double>(kk);
        const Precision cp = c.precision();
        std::function<void()> body = [&c, &in, in_copy = in_operand.copy, m,
                                      kk, cp, repr] {
          Copy scratch;
          const common::FlushDenormalsScope ftz(cp != Precision::FP64);
          const OperandView op = fetch(in, repr, in_copy, scratch);
          switch (cp) {
            case Precision::FP64:
              linalg::syrk_ln_minus_f64(op.d, c.f64(), m, kk);
              break;
            case Precision::FP32:
              linalg::syrk_ln_minus_f32(op.f, c.f32(), m, kk);
              break;
            case Precision::FP16: {
              std::vector<float> cs(static_cast<std::size_t>(m * m));
              c.to_f32(cs.data());
              linalg::syrk_ln_minus_f16(op.h, op.hscale, cs.data(), m, kk);
              c.from_f32(cs.data());
              break;
            }
          }
        };
        task.fn = guard(std::move(body), TaskKind::Syrk, {{i, k}}, i, i,
                        static_cast<std::uint64_t>(kernel_ids_.size()));
        task.accesses = {{in_operand.handle, Access::Read},
                         {tile_handle(i, i), Access::ReadWrite}};
        task.effects = {in_operand.effect,
                        {i, i, Access::ReadWrite, TilePlane::Storage,
                         to_effect_prec(cp)}};
        kernel_ids_.push_back(graph_.submit(std::move(task)));
      }

      // GEMM(i,j,k): C(i,j) -= A(i,k) B(j,k)^T in C's precision class.
      for (index_t j = k + 1; j < i; ++j) {
        TileBuffer& c = a_.tile(i, j);
        TileBuffer& ain = a_.tile(i, k);
        TileBuffer& bin = a_.tile(j, k);
        const Repr repr = operand_repr(c.precision());
        const Operand a_operand = operand_for(i, k, repr, k);
        const Operand b_operand = operand_for(j, k, repr, k);
        Task task;
        task.name = "GEMM(" + std::to_string(i) + "," + std::to_string(j) +
                    "," + std::to_string(k) + ")";
        task.kind = TaskKind::Gemm;
        task.home_row = i;
        task.home_col = j;
        task.priority = prio_base;
        const index_t m = c.rows();
        const index_t n = c.cols();
        const index_t kk = ain.cols();
        task.weight = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                      static_cast<double>(kk);
        const Precision cp = c.precision();
        std::function<void()> body = [&c, &ain, &bin, a_copy = a_operand.copy,
                                      b_copy = b_operand.copy, m, n, kk, cp,
                                      repr] {
          Copy scratch_a, scratch_b;
          const common::FlushDenormalsScope ftz(cp != Precision::FP64);
          const OperandView a_op = fetch(ain, repr, a_copy, scratch_a);
          const OperandView b_op = fetch(bin, repr, b_copy, scratch_b);
          switch (cp) {
            case Precision::FP64:
              linalg::gemm_nt_minus_f64(a_op.d, b_op.d, c.f64(), m, n, kk);
              break;
            case Precision::FP32:
              linalg::gemm_nt_minus_f32(a_op.f, b_op.f, c.f32(), m, n, kk);
              break;
            case Precision::FP16: {
              std::vector<float> cs(static_cast<std::size_t>(m * n));
              c.to_f32(cs.data());
              linalg::gemm_nt_minus_f16(a_op.h, a_op.hscale, b_op.h,
                                        b_op.hscale, cs.data(), m, n, kk);
              c.from_f32(cs.data());
              break;
            }
          }
        };
        task.fn = guard(std::move(body), TaskKind::Gemm, {{i, k}, {j, k}}, i,
                        j, static_cast<std::uint64_t>(kernel_ids_.size()));
        task.accesses = {{a_operand.handle, Access::Read},
                         {b_operand.handle, Access::Read},
                         {tile_handle(i, j), Access::ReadWrite}};
        task.effects = {a_operand.effect, b_operand.effect,
                        {i, j, Access::ReadWrite, TilePlane::Storage,
                         to_effect_prec(cp)}};
        kernel_ids_.push_back(graph_.submit(std::move(task)));
      }
    }
  }
}

namespace {

/// Accumulates per-round scheduler stats across a checkpointed run.
void merge_run_stats(RunStats& total, const RunStats& round) {
  total.seconds += round.seconds;
  total.tasks_executed += round.tasks_executed;
  total.steals += round.steals;
  total.busy_seconds += round.busy_seconds;
  total.threads = std::max(total.threads, round.threads);
  total.counters.steal_hits += round.counters.steal_hits;
  total.counters.steal_misses += round.counters.steal_misses;
  total.counters.parks += round.counters.parks;
  total.counters.wakes += round.counters.wakes;
  total.counters.affinity_hits += round.counters.affinity_hits;
  total.counters.affinity_misses += round.counters.affinity_misses;
  total.counters.transient_retries += round.counters.transient_retries;
  total.counters.recoveries += round.counters.recoveries;
  total.stall_dumps += round.stall_dumps;
  total.retired_ring_bytes_freed += round.retired_ring_bytes_freed;
  if (total.worker_busy_seconds.size() < round.worker_busy_seconds.size()) {
    total.worker_busy_seconds.resize(round.worker_busy_seconds.size(), 0.0);
  }
  for (std::size_t w = 0; w < round.worker_busy_seconds.size(); ++w) {
    total.worker_busy_seconds[w] += round.worker_busy_seconds[w];
  }
  total.done = round.done;
  total.finished_all = round.finished_all;
}

}  // namespace

RtCholeskyResult cholesky_tiled_parallel(linalg::TiledSymmetricMatrix& a,
                                         const RtCholeskyOptions& options,
                                         Trace* trace) {
  const FaultToleranceOptions& ft = options.ft;
  RtCholeskyResult result;

  // Restore BEFORE building the graph: a checkpoint may carry escalated
  // diagonal precisions, and the builder captures tile precisions (and
  // places CONVERT tasks) from the tiles as they are now.
  std::vector<std::uint8_t> kernel_done;
  if (!ft.resume_path.empty()) {
    kernel_done = read_cholesky_checkpoint(ft.resume_path, a);
    result.resumed = true;
  }

  CholeskyGraph builder(a, options.placement, ft);
  EXACLIM_CHECK(builder.graph().validate(), "Cholesky DAG failed validation");
  const std::vector<TaskId>& kernel_ids = builder.kernel_task_ids();
  const index_t num_tasks = builder.graph().num_tasks();

  std::vector<std::uint8_t> already(static_cast<std::size_t>(num_tasks), 0);
  bool have_already = false;
  if (result.resumed) {
    EXACLIM_CHECK(kernel_done.size() == kernel_ids.size(),
                  "checkpoint kernel-task count does not match this "
                  "factorization's graph");
    // Prune only kernel tasks. CONVERT tasks re-run from the restored tiles:
    // their in-memory outputs were not persisted, and re-running them is
    // deterministic and cheap.
    for (std::size_t s = 0; s < kernel_done.size(); ++s) {
      if (kernel_done[s] != 0) {
        already[static_cast<std::size_t>(kernel_ids[s])] = 1;
      }
    }
    have_already = true;
  }
  if (ft.integrity_checks) builder.seed_tile_checksums();

  SchedulerOptions sched;
  sched.threads = options.threads;
  sched.collect_trace = options.collect_trace;
  sched.stall_timeout_seconds = options.stall_timeout_seconds;
  sched.stall_grace_seconds = options.stall_grace_seconds;
  sched.verify = options.verify;
  const bool periodic =
      !ft.checkpoint_path.empty() && ft.checkpoint_every > 0;
  sched.task_budget = periodic ? ft.checkpoint_every : 0;

  auto kernel_bitmap = [&](const std::vector<std::uint8_t>& done) {
    std::vector<std::uint8_t> kd(kernel_ids.size(), 0);
    for (std::size_t s = 0; s < kd.size(); ++s) {
      kd[s] = done[static_cast<std::size_t>(kernel_ids[s])];
    }
    return kd;
  };
  auto write_ckpt = [&](const std::vector<std::uint8_t>& done) {
    write_cholesky_checkpoint(ft.checkpoint_path, a, kernel_bitmap(done),
                              ft.checkpoint_sync);
    ++result.checkpoints_written;
  };

  // Every commit but the last runs on a background writer from `snapshot`,
  // overlapping the next round; the last is written from the live tiles, so
  // the run returns with the file durable. At most one commit is in flight:
  // it is joined, rethrowing its error, before the next snapshot and before
  // the last write. If execute() throws, `pending`'s destructor (a future
  // from std::async) still waits for the writer but drops its outcome: the
  // task failure propagates, and the file holds the newest generation that
  // was renamed into place.
  CheckpointSnapshot snapshot;
  std::future<void> pending;
  const unsigned copy_threads = options.threads == 0
                                    ? common::default_thread_count()
                                    : options.threads;
  auto join_pending = [&] {
    if (!pending.valid()) return;
    pending.get();
    ++result.checkpoints_written;
  };

  // Budgeted rounds: each execute() quiesces at a task boundary, which is
  // the crash-consistent point to snapshot the frontier + tile payloads.
  // The first round verifies the graph; the later ones only their bitmaps.
  for (;;) {
    sched.already_done = have_already ? &already : nullptr;
    RunStats round = execute(builder.graph(), sched, trace);
    sched.graph_verified = true;
    merge_run_stats(result.run, round);
    if (periodic) {
      join_pending();
      if (round.finished_all) {
        write_ckpt(round.done);
      } else {
        snapshot.capture(a, copy_threads);
        pending = std::async(
            std::launch::async,
            [&snapshot, &ft, kd = kernel_bitmap(round.done)] {
              snapshot.write(ft.checkpoint_path, kd, ft.checkpoint_sync);
            });
      }
    }
    if (round.finished_all) break;
    already = std::move(round.done);
    have_already = true;
  }
  if (!ft.checkpoint_path.empty() && !periodic) {
    write_ckpt(result.run.done);
  }
  if (ft.integrity_checks) builder.verify_tile_checksums();

  result.total_tasks = num_tasks;
  result.convert_tasks = builder.convert_tasks();
  result.element_conversions = builder.element_conversions();
  result.critical_path_tasks = builder.graph().critical_path_tasks();
  result.precision_escalations = builder.precision_escalations();
  result.jitter_escalations = builder.jitter_escalations();
  return result;
}

linalg::Matrix cholesky_mixed_dense(const linalg::Matrix& a, index_t nb,
                                    linalg::PrecisionVariant v) {
  const index_t nt = (a.rows() + nb - 1) / nb;
  auto tiled = linalg::TiledSymmetricMatrix::from_dense(
      a, nb, linalg::make_band_policy(nt, v));
  cholesky_tiled_parallel(tiled);
  return tiled.to_dense(/*lower_only=*/true);
}

}  // namespace exaclim::runtime
