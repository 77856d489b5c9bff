// Per-precision BLAS3 kernels for the tile-based mixed-precision Cholesky.
//
// The paper runs POTRF/TRSM/SYRK/GEMM tile kernels in fp64, fp32 or fp16
// (tensor cores: fp16 inputs, fp32 accumulation). We reproduce the same
// numerics on the CPU:
//   * FP64 kernels: plain double arithmetic.
//   * FP32 kernels: plain float arithmetic.
//   * FP16 "tensor-core" path: operands are rounded through IEEE binary16 and
//     the multiply-accumulate runs in fp32 (see gemm/syrk callers in
//     runtime/tiled_cholesky_rt.cpp), which is exactly the
//     V100/A100/H100/MI250X tensor-core contract the paper relies on.
//
// All tiles are row-major with a leading dimension equal to the tile width.
// Kernels take explicit (m, n, k) so ragged edge tiles work.
#pragma once

#include <cstddef>
#include <string>

#include "common/half.hpp"
#include "common/types.hpp"

namespace exaclim::linalg {

/// Storage/compute precision of a tile.
enum class Precision : std::uint8_t { FP64 = 0, FP32 = 1, FP16 = 2 };

/// Human-readable name ("DP", "SP", "HP") matching the paper's terminology.
std::string precision_name(Precision p);

/// Bytes per element.
std::size_t precision_bytes(Precision p);

/// RAII thread-local tile context. While one is alive on the calling thread,
/// NumericalError messages thrown from the tile kernels name the tile
/// (row, col) and the active precision, so a failed POTRF/TRSM in a large
/// tiled run is actionable instead of anonymous. Set by the sequential
/// engine and by the runtime task bodies around each kernel invocation;
/// nesting restores the outer context on destruction.
class ScopedTileContext {
 public:
  ScopedTileContext(index_t row, index_t col, Precision p);
  ~ScopedTileContext();

  ScopedTileContext(const ScopedTileContext&) = delete;
  ScopedTileContext& operator=(const ScopedTileContext&) = delete;

 private:
  index_t prev_row_;
  index_t prev_col_;
  Precision prev_prec_;
  bool prev_active_;
};

/// " on tile (r,c) [precision DP]" while a ScopedTileContext is active on
/// this thread, "" otherwise. Appended to kernel failure messages.
std::string tile_context_suffix();

/// Memory-pressure ladder rung 2: trims the calling thread's blocked-kernel
/// scratch arenas if the MemoryBudget pressure epoch moved since the last
/// call. Must only be called when no kernel is running on this thread (the
/// scheduler calls it between tasks). Near-free when there is no pressure.
void trim_thread_scratch_on_pressure();

// --- Kernel tuning -----------------------------------------------------------
//
// The cache-blocking parameters of the packed engine (KC slivers in L1, an
// MC x KC packed A block in L2, a KC x NC packed B panel in L3) are
// compile-time constants of the engine: 256/96/4096 for both element widths,
// the set every artifact is produced with. KC sets where a k sum restarts,
// so it is part of every factor's bytes. This section only reports them.

/// Cache-blocking parameters for one element width.
struct BlockSizes {
  index_t kc = 0;  ///< k-panel depth (packed slivers stay L1-resident)
  index_t mc = 0;  ///< A-block rows (MC x KC packed block targets L2)
  index_t nc = 0;  ///< B-panel rows (KC x NC packed panel targets L3)
};

enum class TuneMode : std::uint8_t { Fixed = 0 };

/// The engine's blocking, plus the detected cache sizes for reporting.
struct KernelTuning {
  BlockSizes f64;  ///< blocking for 8-byte elements
  BlockSizes f32;  ///< blocking for 4-byte elements (also the packed-f16 path)
  TuneMode mode = TuneMode::Fixed;
  std::size_t l1d_bytes = 0;  ///< detected cache sizes (0 = unknown)
  std::size_t l2_bytes = 0;
  std::size_t l3_bytes = 0;
};

/// The engine's compiled-in blocking, with common::Topology's cache sizes.
KernelTuning active_tuning();

/// "fixed", the name bench metas and traces print for the mode.
std::string tune_mode_name(TuneMode mode);

// --- Factorization kernels -------------------------------------------------
//
// The primary entry points below run the cache-blocked engine: packed panels
// streamed through an MR x NR register-tiled micro-kernel, explicit AVX-512
// intrinsics where the ISA has them (see docs/PERF.md).
// Each kernel keeps its original scalar implementation as a `*_ref` oracle;
// the blocked results match the oracles to accumulation-order rounding
// (~1e-13 relative in f64), which tests/kernels_blocked_test.cpp asserts.

/// In-place lower Cholesky of the n x n tile `a`. Throws NumericalError on a
/// non-positive pivot. Strictly-upper entries are left untouched. Recursive
/// blocked: A = [[A11, .], [A21, A22]] splits at a panel-aligned midpoint so
/// the off-diagonal half becomes one blocked TRSM + SYRK pair per level,
/// bottoming out in a vectorized unblocked panel factorization.
void potrf_lower_f64(double* a, index_t n);
void potrf_lower_f32(float* a, index_t n);

/// Solves X * L^T = B for X, overwriting B (m x n), with L the n x n lower
/// Cholesky factor of the panel's diagonal tile. This is the tile TRSM of the
/// right-looking factorization. Blocked: NB-wide column panels of B clear
/// their left contribution through the packed GEMM engine, then the small
/// triangular block solves on row slivers of B packed column-major so the
/// forward substitution vectorizes across rows.
void trsm_rlt_f64(const double* l, double* b, index_t m, index_t n);
void trsm_rlt_f32(const float* l, float* b, index_t m, index_t n);

/// C (m x n) -= A (m x k) * B (n x k)^T. The trailing-update GEMM.
void gemm_nt_minus_f64(const double* a, const double* b, double* c, index_t m,
                       index_t n, index_t k);
void gemm_nt_minus_f32(const float* a, const float* b, float* c, index_t m,
                       index_t n, index_t k);

/// C (m x m, lower triangle incl. diagonal) -= A (m x k) * A^T.
void syrk_ln_minus_f64(const double* a, double* c, index_t m, index_t k);
void syrk_ln_minus_f32(const float* a, float* c, index_t m, index_t k);

// --- Packed-half kernels -----------------------------------------------------
//
// The HP tile path stores tiles as packed binary16 plus one per-tile scale
// (true value = float(h) * scale, see TileBuffer). These kernels consume the
// packed halves directly: operand panels are widened f16 -> f32 while being
// packed into the blocked engine's sliver buffers (F16C-vectorized when the
// ISA has it), the multiply-accumulate runs in f32 — the tensor-core
// contract — and the operand scales are folded into a single alpha applied
// at accumulator write-back. No f32 copy of the operand tiles is ever
// materialized, unlike the previous round-through-f32 path.

/// C (f32, m x n) -= (a_scale * b_scale) * Ah (m x k) * Bh (n x k)^T.
void gemm_nt_minus_f16(const common::half* a, float a_scale,
                       const common::half* b, float b_scale, float* c,
                       index_t m, index_t n, index_t k);

/// C (f32, m x m lower incl. diagonal) -= a_scale^2 * Ah (m x k) * Ah^T.
void syrk_ln_minus_f16(const common::half* a, float a_scale, float* c,
                       index_t m, index_t k);

/// Scaled-f16 TRSM: solves X * L^T = b_scale * Bh for X (written to the f32
/// buffer `x`, m x n), consuming the packed-half RHS directly — the
/// Repr::F16P operand form, no widened f32 copy of B made by the caller. The
/// solve runs on the unscaled halves and the (power-of-two, hence exact)
/// scale is applied once at write-back; the caller typically repacks `x`
/// with a fresh tile scale.
void trsm_rlt_f16(const float* l, const common::half* b, float b_scale,
                  float* x, index_t m, index_t n);

// --- Scalar reference oracles ----------------------------------------------
//
// The seed's element-wise kernels, kept verbatim as correctness oracles for
// the blocked engine and as the baseline the BENCH_kernels.json speedups are
// measured against. Semantics are identical to the blocked entry points.

void potrf_lower_ref_f64(double* a, index_t n);
void potrf_lower_ref_f32(float* a, index_t n);
void trsm_rlt_ref_f64(const double* l, double* b, index_t m, index_t n);
void trsm_rlt_ref_f32(const float* l, float* b, index_t m, index_t n);
void gemm_nt_minus_ref_f64(const double* a, const double* b, double* c,
                           index_t m, index_t n, index_t k);
void gemm_nt_minus_ref_f32(const float* a, const float* b, float* c, index_t m,
                           index_t n, index_t k);
void syrk_ln_minus_ref_f64(const double* a, double* c, index_t m, index_t k);
void syrk_ln_minus_ref_f32(const float* a, float* c, index_t m, index_t k);

// --- Loop micro-kernel oracles ----------------------------------------------
//
// The blocked engine above with its portable loop micro-kernel in place of
// the explicit AVX-512 one: same packing, blocking and panel code, and the
// same per-entry operations (one fused multiply-add per k, ascending, then
// one fused c - alpha * acc). The primary entry points must match these
// byte for byte; without AVX-512 they are the same code.
// `scripts/check.sh --lint` keeps them out of the rest of src/.

void potrf_lower_loop_f64(double* a, index_t n);
void potrf_lower_loop_f32(float* a, index_t n);
void trsm_rlt_loop_f64(const double* l, double* b, index_t m, index_t n);
void trsm_rlt_loop_f32(const float* l, float* b, index_t m, index_t n);
void trsm_rlt_loop_f16(const float* l, const common::half* b, float b_scale,
                       float* x, index_t m, index_t n);
void gemm_nt_minus_loop_f64(const double* a, const double* b, double* c,
                            index_t m, index_t n, index_t k);
void gemm_nt_minus_loop_f32(const float* a, const float* b, float* c,
                            index_t m, index_t n, index_t k);
void gemm_nt_minus_loop_f16(const common::half* a, float a_scale,
                            const common::half* b, float b_scale, float* c,
                            index_t m, index_t n, index_t k);
void syrk_ln_minus_loop_f64(const double* a, double* c, index_t m, index_t k);
void syrk_ln_minus_loop_f32(const float* a, float* c, index_t m, index_t k);
void syrk_ln_minus_loop_f16(const common::half* a, float a_scale, float* c,
                            index_t m, index_t k);

/// The scalar sampling apply: one k-wide axpy per factor element, widening
/// f32/f16 entries at read. sample_apply_packed (below) must match it byte
/// for byte; `scripts/check.sh --lint` keeps it out of the rest of src/.
struct PackedFactorView;
void sample_apply_packed_ref(const PackedFactorView& l, index_t r0,
                             index_t r1, index_t c0, index_t c1,
                             const double* z, double* x, index_t k_cols,
                             std::uint64_t skip);

// --- Precision conversion ---------------------------------------------------

/// Element-wise conversions (round-to-nearest-even where narrowing).
void convert_f64_to_f32(const double* src, float* dst, index_t count);
void convert_f32_to_f64(const float* src, double* dst, index_t count);
void convert_f64_to_f16(const double* src, common::half* dst, index_t count);
void convert_f16_to_f64(const common::half* src, double* dst, index_t count);
void convert_f32_to_f16(const float* src, common::half* dst, index_t count);
void convert_f16_to_f32(const common::half* src, float* dst, index_t count);

/// Rounds a float buffer through binary16 in place (tensor-core operand
/// rounding without a separate half buffer). Values beyond +-65504 saturate
/// to infinity; the scaled conversions below are the overflow-safe form.
void round_through_f16(float* data, index_t count);

// --- Scaled f16 conversion ---------------------------------------------------
//
// Max-abs normalization into binary16: the narrowing conversions choose a
// power-of-two scale s with max|v| / s in [16384, 32768] (safely inside the
// binary16 range) and store h = round_f16(v / s), so tile entries of any
// magnitude survive the 5-bit exponent — the compute-path mirror of the
// serializer's FactorStorage::FP16Scaled. The scale is exact to apply
// (power of two), division by it rounds nothing, and an all-zero buffer
// gets s = 1. The returned scale is always a normal float.

/// Narrows with per-buffer scaling; returns the chosen scale. The f64
/// variant rounds once, straight from double (see double_to_half_bits).
float convert_f64_to_f16_scaled(const double* src, common::half* dst,
                                index_t count);
float convert_f32_to_f16_scaled(const float* src, common::half* dst,
                                index_t count);

/// Widens packed halves and re-applies the scale (exact but for f16
/// subnormals scaled back up, where the product may round once).
void convert_f16_scaled_to_f64(const common::half* src, float scale,
                               double* dst, index_t count);
void convert_f16_scaled_to_f32(const common::half* src, float scale,
                               float* dst, index_t count);

/// Scalar oracles of the three conversions above that have AVX-512 bodies
/// (vector max-abs scans, round-to-odd f64 -> f16 narrowing, F16C
/// widening). The vector forms must match them byte for byte, NaN and
/// infinity lanes included; `scripts/check.sh --lint` keeps them out of the
/// rest of src/. The f32 narrowing's F16C step keeps a NaN's upper payload
/// bits where the oracle writes the default quiet NaN, so only default NaNs
/// are pinned there.
float convert_f64_to_f16_scaled_ref(const double* src, common::half* dst,
                                    index_t count);
float convert_f32_to_f16_scaled_ref(const float* src, common::half* dst,
                                    index_t count);
void convert_f16_scaled_to_f64_ref(const common::half* src, float scale,
                                   double* dst, index_t count);

// --- Serving: batched multi-RHS apply over a packed-triangle factor ---------
//
// The serving engine draws K correlated realizations per pass as X = L * Z,
// where L is the n x n lower-triangular Cholesky factor stored exactly as
// the model file serializes it: packed lower-triangle rows in one of three
// storage precisions (mirroring core::FactorStorage). The kernel below reads
// those packed bytes directly — typically an mmap'd model section — so
// serving needs no unpacked copy of the factor at all, and the K right-hand
// sides amortize each factor element loaded from memory across the whole
// batch (the multi-RHS form of the triangular apply).

/// Element layout of a packed lower-triangle factor payload.
enum class PackedStorage : std::uint8_t {
  F64 = 0,        ///< row i = (i+1) doubles at element offset i(i+1)/2
  F32 = 1,        ///< same layout in floats
  F16Scaled = 2,  ///< row i = one float scale then (i+1) binary16 halves
};

/// Read-only view of a packed factor; `bytes` is borrowed, not owned.
struct PackedFactorView {
  const unsigned char* bytes = nullptr;
  std::size_t size_bytes = 0;
  index_t n = 0;
  PackedStorage storage = PackedStorage::F64;
};

/// Exact payload size of a packed factor of dimension n.
std::size_t packed_factor_bytes(PackedStorage storage, index_t n);

/// Batched sampling apply over one block of the packed factor:
///   X[r, k] += sum_{c in [c0, min(c1, r+1))} L(r, c) * Z[c, k]
/// for r in [r0, r1), k in [0, k_cols). X and Z are row-major n x k_cols
/// panels. `skip` is a bitmask of cancelled batch columns (bit k set =
/// column k is left untouched; k_cols <= 64). The accumulation order over c
/// is fixed ascending — combined with the sampling DAG serializing the block
/// passes over each X row in ascending block-column order, a request's
/// column is bit-identical for any batch width, co-batched request set, or
/// thread count. A register block of rows x columns accumulates in place:
/// F64 rows are read where they lie, F32/F16 rows are widened once per
/// strip of at most 256 columns into a stack buffer. Allocates nothing.
void sample_apply_packed(const PackedFactorView& l, index_t r0, index_t r1,
                         index_t c0, index_t c1, const double* z, double* x,
                         index_t k_cols, std::uint64_t skip);

}  // namespace exaclim::linalg
