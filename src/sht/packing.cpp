#include "sht/packing.hpp"

#include <cmath>

#include "common/error.hpp"

namespace exaclim::sht {

namespace {
constexpr double kSqrt2 = 1.41421356237309504880;
}

std::vector<double> pack_real(index_t band_limit,
                              const std::vector<cplx>& coeffs) {
  EXACLIM_CHECK(static_cast<index_t>(coeffs.size()) == tri_count(band_limit),
                "coefficient count must be band_limit*(band_limit+1)/2");
  std::vector<double> packed(static_cast<std::size_t>(band_limit * band_limit));
  for (index_t l = 0; l < band_limit; ++l) {
    index_t out = packed_degree_offset(l);
    packed[static_cast<std::size_t>(out++)] =
        coeffs[static_cast<std::size_t>(tri_index(l, 0))].real();
    for (index_t m = 1; m <= l; ++m) {
      const cplx z = coeffs[static_cast<std::size_t>(tri_index(l, m))];
      packed[static_cast<std::size_t>(out++)] = kSqrt2 * z.real();
      packed[static_cast<std::size_t>(out++)] = kSqrt2 * z.imag();
    }
  }
  return packed;
}

std::vector<cplx> unpack_real(index_t band_limit,
                              const std::vector<double>& packed) {
  std::vector<cplx> coeffs(static_cast<std::size_t>(tri_count(band_limit)));
  unpack_real(band_limit, packed, coeffs);
  return coeffs;
}

void unpack_real(index_t band_limit, std::span<const double> packed,
                 std::span<cplx> coeffs) {
  EXACLIM_CHECK(
      static_cast<index_t>(packed.size()) == band_limit * band_limit,
      "packed length must be band_limit^2");
  EXACLIM_CHECK(static_cast<index_t>(coeffs.size()) == tri_count(band_limit),
                "coefficient count must be band_limit*(band_limit+1)/2");
  for (index_t l = 0; l < band_limit; ++l) {
    index_t in = packed_degree_offset(l);
    coeffs[static_cast<std::size_t>(tri_index(l, 0))] =
        cplx{packed[static_cast<std::size_t>(in++)], 0.0};
    for (index_t m = 1; m <= l; ++m) {
      const double re = packed[static_cast<std::size_t>(in++)] / kSqrt2;
      const double im = packed[static_cast<std::size_t>(in++)] / kSqrt2;
      coeffs[static_cast<std::size_t>(tri_index(l, m))] = cplx{re, im};
    }
  }
}

index_t packed_index_degree(index_t packed_index) {
  EXACLIM_CHECK(packed_index >= 0, "index must be non-negative");
  const auto l = static_cast<index_t>(
      std::floor(std::sqrt(static_cast<double>(packed_index))));
  // Guard against floating-point edge effects at perfect squares.
  if ((l + 1) * (l + 1) <= packed_index) return l + 1;
  if (l * l > packed_index) return l - 1;
  return l;
}

}  // namespace exaclim::sht
