// Packing between complex spherical-harmonic coefficients of a real field
// and the real vector f_t in R^{L^2} used by the temporal model.
//
// A real field has z_{l,-m} = (-1)^m conj(z_{l,m}), so the independent
// information is z_{l,0} in R plus Re/Im of z_{l,m} for m > 0. The paper
// stacks these into f_t in R^{L^2} (Section III-A.3). We use the isometric
// packing
//   [ z_{l,0},  sqrt(2) Re z_{l,1}, sqrt(2) Im z_{l,1}, ... ]   per degree l,
// so that the Euclidean norm of the packed vector equals the L2(sphere) norm
// of the field component — covariance modelling in R^{L^2} is then exactly
// covariance modelling of the field.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "sht/legendre.hpp"

namespace exaclim::sht {

/// Packs complex coefficients (triangular layout, m >= 0, tri_index order)
/// into a real vector of length band_limit^2. The imaginary part of every
/// z_{l,0} must be ~0 (real field); it is dropped.
std::vector<double> pack_real(index_t band_limit, const std::vector<cplx>& coeffs);

/// Inverse of pack_real.
std::vector<cplx> unpack_real(index_t band_limit, const std::vector<double>& packed);

/// unpack_real into caller storage of band_limit (band_limit + 1) / 2
/// coefficients (no allocation).
void unpack_real(index_t band_limit, std::span<const double> packed,
                 std::span<cplx> coeffs);

/// Offset of degree l's block inside the packed real vector: sum over
/// l' < l of (2l'+1) = l^2.
constexpr index_t packed_degree_offset(index_t l) { return l * l; }

/// Degree l of a packed real index (inverse of the block layout).
index_t packed_index_degree(index_t packed_index);

}  // namespace exaclim::sht
