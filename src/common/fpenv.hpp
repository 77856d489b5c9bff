// Scoped flush-to-zero for the low-precision tile tasks.
//
// An f32 value below 2^-126 is subnormal. On x86, an SSE/AVX instruction
// that reads or produces one takes a microcode assist costing on the order
// of a hundred cycles, so a packed FMA kernel whose operands sit in that
// range runs several times slower than on normal values. The far tiles of a
// fast-decaying covariance hold exactly such values once the band policy
// narrows them to FP32 or scaled FP16 (docs/PERF.md, "Subnormals in
// low-precision tiles").
//
// FlushDenormalsScope sets MXCSR.FTZ (bit 15: a tiny result becomes a
// signed zero) and MXCSR.DAZ (bit 6: a subnormal input reads as a signed
// zero) on construction, and writes the saved MXCSR back on destruction,
// also when the scope is left by an exception. The tiled Cholesky opens one
// around each task body whose output is an FP32 or FP16 tile, and around
// each CONVERT that narrows to FP32 or packed half. Everything else on the
// thread keeps IEEE gradual underflow, so FP64 results never move: FP64
// tasks, POTRF, the recovery hooks, sampling and training.
//
// Hold only calls to functions compiled out of line inside the scope. GCC
// does not order floating-point arithmetic against ldmxcsr unless
// -frounding-math is on, so inline arithmetic may be scheduled to either
// side of the mode switch.
//
// This file is the one place in src/ that may write MXCSR (scripts/check.sh
// lints for it): a process-wide FTZ would move FP64 bytes. On targets
// without an SSE control register the scope is a no-op, and low-precision
// tiles keep gradual underflow there.
#pragma once

#if defined(__SSE__)
#include <xmmintrin.h>
#endif

namespace exaclim::common {

/// MXCSR bits the scope sets: flush-to-zero (15) and denormals-are-zero (6).
inline constexpr unsigned kMxcsrFtzDaz = (1u << 15) | (1u << 6);

class FlushDenormalsScope {
 public:
  /// Sets FTZ|DAZ when `active`; an inactive scope touches nothing, so one
  /// task body can serve every output precision.
  explicit FlushDenormalsScope(bool active) noexcept : active_(active) {
#if defined(__SSE__)
    if (active_) {
      saved_ = _mm_getcsr();
      _mm_setcsr(saved_ | kMxcsrFtzDaz);
    }
#endif
  }

  ~FlushDenormalsScope() {
#if defined(__SSE__)
    if (active_) _mm_setcsr(saved_);
#endif
  }

  FlushDenormalsScope(const FlushDenormalsScope&) = delete;
  FlushDenormalsScope& operator=(const FlushDenormalsScope&) = delete;

 private:
  bool active_;
  unsigned saved_ = 0;
};

}  // namespace exaclim::common
