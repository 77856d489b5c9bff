#include "common/half.hpp"

#include <bit>
#include <cstring>

namespace exaclim::common {

namespace {
std::uint32_t float_bits(float f) noexcept {
  return std::bit_cast<std::uint32_t>(f);
}
float bits_float(std::uint32_t u) noexcept { return std::bit_cast<float>(u); }
}  // namespace

std::uint16_t float_to_half_bits(float f) noexcept {
  const std::uint32_t u = float_bits(f);
  const std::uint32_t sign = (u >> 16) & 0x8000u;
  const std::uint32_t abs = u & 0x7FFFFFFFu;

  if (abs >= 0x7F800000u) {
    // Inf or NaN. A NaN comes out quiet with the top of its payload, as
    // F16C's vcvtps2ph writes it.
    const std::uint32_t mant =
        abs > 0x7F800000u ? 0x0200u | ((abs >> 13) & 0x03FFu) : 0u;
    return static_cast<std::uint16_t>(sign | 0x7C00u | mant);
  }
  if (abs >= 0x477FF000u) {
    // Rounds to a magnitude >= 2^16: overflow to infinity.
    // (0x477FF000 is 65520.0f, the midpoint above kHalfMax.)
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (abs < 0x38800000u) {
    // Subnormal half (or zero): shift into a fixed-point representation with
    // round-to-nearest-even.
    if (abs < 0x33000000u) {
      // Below half the smallest subnormal: rounds to zero.
      return static_cast<std::uint16_t>(sign);
    }
    // The float value is mant * 2^(E-23) with E = exp - 127; the half
    // subnormal unit is 2^-24, so the result is mant >> (-E - 1).
    const int shift = 126 - static_cast<int>(abs >> 23);  // -E - 1, in [14,24]
    const std::uint32_t mant = (abs & 0x007FFFFFu) | 0x00800000u;
    const std::uint32_t dropped_bits = static_cast<std::uint32_t>(shift);
    const std::uint32_t result = mant >> dropped_bits;
    const std::uint32_t rem = mant & ((1u << dropped_bits) - 1u);
    const std::uint32_t halfway = 1u << (dropped_bits - 1u);
    std::uint32_t rounded = result;
    if (rem > halfway || (rem == halfway && (result & 1u))) ++rounded;
    return static_cast<std::uint16_t>(sign | rounded);
  }
  // Normal case: rebias exponent (127 -> 15), round mantissa 23 -> 10 bits.
  const std::uint32_t exp = ((abs >> 23) - 112u) << 10;
  const std::uint32_t mant = (abs >> 13) & 0x03FFu;
  std::uint32_t h = sign | exp | mant;
  const std::uint32_t rem = abs & 0x1FFFu;
  if (rem > 0x1000u || (rem == 0x1000u && (h & 1u))) ++h;  // carries into exp correctly
  return static_cast<std::uint16_t>(h);
}

std::uint16_t double_to_half_bits(double d) noexcept {
  const std::uint64_t u = std::bit_cast<std::uint64_t>(d);
  const auto sign = static_cast<std::uint32_t>((u >> 48) & 0x8000u);
  const std::uint64_t abs = u & 0x7FFFFFFFFFFFFFFFull;

  if (abs >= 0x7FF0000000000000ull) {
    // Inf or NaN. A NaN comes out quiet with the top of its payload, as
    // float_to_half_bits(float(d)) would write it.
    const std::uint32_t mant =
        abs > 0x7FF0000000000000ull
            ? 0x0200u | static_cast<std::uint32_t>((abs >> 42) & 0x03FFu)
            : 0u;
    return static_cast<std::uint16_t>(sign | 0x7C00u | mant);
  }

  const int exp_d = static_cast<int>(abs >> 52);  // biased by 1023
  const int e = exp_d - 1023;
  const std::uint64_t mant = abs & 0x000FFFFFFFFFFFFFull;

  if (e >= 16) {
    // Magnitude >= 2^16: overflow to infinity regardless of rounding.
    return static_cast<std::uint16_t>(sign | 0x7C00u);
  }
  if (exp_d == 0 || e <= -26) {
    // Double subnormals and anything below 2^-25 round to zero (the tie at
    // exactly 2^-25 goes to even = zero and is handled by the shift path,
    // which only values with e == -25 can reach).
    return static_cast<std::uint16_t>(sign);
  }
  if (e <= -15) {
    // Subnormal half: express the value in units of 2^-24 (the subnormal
    // unit) and round the 53-bit significand with round-to-nearest-even.
    // shift = 28 - e is in [43, 53], so the shifts below are well defined.
    const std::uint64_t m = mant | 0x0010000000000000ull;
    const int shift = 28 - e;
    const std::uint64_t result = m >> shift;
    const std::uint64_t rem = m & ((1ull << shift) - 1ull);
    const std::uint64_t halfway = 1ull << (shift - 1);
    std::uint64_t rounded = result;
    if (rem > halfway || (rem == halfway && (result & 1ull))) ++rounded;
    // A carry out of the subnormal field lands on exponent 1 = 2^-14, which
    // is exactly the encoding arithmetic below the normal path relies on.
    return static_cast<std::uint16_t>(sign | static_cast<std::uint32_t>(rounded));
  }
  // Normal half: rebias exponent (1023 -> 15), round mantissa 52 -> 10 bits.
  std::uint32_t h = sign | (static_cast<std::uint32_t>(e + 15) << 10) |
                    static_cast<std::uint32_t>(mant >> 42);
  const std::uint64_t rem = mant & 0x000003FFFFFFFFFFull;
  const std::uint64_t halfway = 1ull << 41;
  // The increment carries into the exponent correctly, including rounding
  // values in [65520, 65536) up to infinity.
  if (rem > halfway || (rem == halfway && (h & 1u))) ++h;
  return static_cast<std::uint16_t>(h);
}

float half_bits_to_float(std::uint16_t h) noexcept {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t exp = (h >> 10) & 0x1Fu;
  const std::uint32_t mant = h & 0x03FFu;

  if (exp == 0x1Fu) {
    // Inf, or a NaN made quiet with its payload kept, as F16C's vcvtph2ps
    // widens it.
    const std::uint32_t quiet = mant != 0 ? 0x00400000u : 0u;
    return bits_float(sign | 0x7F800000u | quiet | (mant << 13));
  }
  if (exp == 0) {
    if (mant == 0) return bits_float(sign);  // +/- 0
    // Subnormal: renormalize.
    int e = -1;
    std::uint32_t m = mant;
    do {
      ++e;
      m <<= 1;
    } while ((m & 0x0400u) == 0);
    const std::uint32_t fexp = static_cast<std::uint32_t>(112 - e) << 23;
    return bits_float(sign | fexp | ((m & 0x03FFu) << 13));
  }
  return bits_float(sign | ((exp + 112u) << 23) | (mant << 13));
}

}  // namespace exaclim::common
