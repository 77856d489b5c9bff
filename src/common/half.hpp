// Software IEEE-754 binary16 ("half precision") type.
//
// The paper's DP/HP mixed-precision Cholesky stores off-band tiles in fp16 and
// computes on GPU tensor cores, which take fp16 inputs and accumulate in fp32.
// We reproduce exactly those numerics in software: `half` stores IEEE binary16
// bits; mixed-precision kernels convert operands half->float and accumulate in
// float (see linalg/kernels.hpp). Conversion uses round-to-nearest-even, the
// tensor-core default.
#pragma once

#include <cstdint>

namespace exaclim::common {

/// Convert an IEEE binary32 float to binary16 bits (round-to-nearest-even,
/// overflow to infinity, denormal support).
/// All three conversions write a NaN as F16C does: sign, quiet bit, then the
/// top payload bits (f32 0x7FA00000 -> f16 0x7F00 -> f32 0x7FE00000).
std::uint16_t float_to_half_bits(float f) noexcept;

/// Convert an IEEE binary64 double to binary16 bits with a SINGLE
/// round-to-nearest-even. Narrowing f64 -> f32 -> f16 rounds twice and can
/// differ by one ulp near f16 midpoints (e.g. 1 + 2^-11 + 2^-40) or flush a
/// would-be subnormal to zero; this routine rounds the 52-bit mantissa
/// straight to the f16 grid.
std::uint16_t double_to_half_bits(double d) noexcept;

/// Convert IEEE binary16 bits to a binary32 float (exact but for a signaling
/// NaN, which comes out quiet).
float half_bits_to_float(std::uint16_t h) noexcept;

/// IEEE-754 binary16 value type. Arithmetic is intentionally not provided:
/// mixed-precision kernels must convert to float explicitly so that the
/// accumulate precision is visible at the call site.
class half {
 public:
  half() = default;
  explicit half(float f) noexcept : bits_(float_to_half_bits(f)) {}
  explicit half(double d) noexcept : bits_(double_to_half_bits(d)) {}

  explicit operator float() const noexcept { return half_bits_to_float(bits_); }
  explicit operator double() const noexcept {
    return static_cast<double>(half_bits_to_float(bits_));
  }

  std::uint16_t bits() const noexcept { return bits_; }
  static half from_bits(std::uint16_t b) noexcept {
    half h;
    h.bits_ = b;
    return h;
  }

  friend bool operator==(half a, half b) noexcept { return a.bits_ == b.bits_; }

 private:
  std::uint16_t bits_ = 0;
};

static_assert(sizeof(half) == 2, "half must be two bytes");

/// Largest finite binary16 value.
inline constexpr float kHalfMax = 65504.0f;
/// Smallest positive normal binary16 value.
inline constexpr float kHalfMinNormal = 6.103515625e-05f;
/// Unit roundoff of binary16 (2^-11).
inline constexpr float kHalfEps = 4.8828125e-04f;

}  // namespace exaclim::common
