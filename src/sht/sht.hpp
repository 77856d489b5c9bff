// Fast spherical harmonic transform on equiangular grids, after the method
// of the paper (Section III-A.1/A.2, following Chowdhury et al. [43]).
//
// Forward analysis of a real field Z(theta_i, phi_j):
//   1. FFT along longitude:  G_m(theta_i) = (2 pi / N_phi) sum_j Z e^{-i m phi_j}
//   2. Extend along colatitude with G_m(2 pi - theta) = (-1)^m G_m(theta) and
//      inverse-FFT over the 2 N_theta - 2 equispaced samples of [0, 2 pi) to
//      obtain Fourier coefficients K_{m,m'} of G_m.
//   3. W_{m,n}   = sum_{m'} K_{m,m'} I(n + m') with the analytic integral
//      I(q) = int_0^pi e^{i q theta} sin(theta) dtheta  (Eq. 8).
//   4. z_{l,m}   = i^{-m} sqrt((2l+1)/(4 pi)) *
//                  sum_{n=-l}^{l} d^l_{n,0}(pi/2) d^l_{n,m}(pi/2) W_{m,n}.
//
// The transform is *exact* for fields band-limited at degree L when
// N_phi >= 2L - 1 and N_theta >= L + 1 (grid includes both poles), which the
// round-trip property tests assert to ~1e-11 relative error.
//
// Inverse synthesis uses direct Legendre summation per longitude order plus
// an FFT along longitude; both directions cost O(L^3) per time slot as in the
// paper's complexity analysis.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/types.hpp"
#include "fft/fft.hpp"
#include "sht/legendre.hpp"
#include "sht/wigner.hpp"

namespace exaclim::sht {

/// Equiangular latitude-longitude grid, ERA5-style: colatitudes
/// theta_i = i * pi / (nlat - 1), i = 0..nlat-1 (both poles included),
/// longitudes phi_j = 2 pi j / nlon.
struct GridShape {
  index_t nlat = 0;
  index_t nlon = 0;

  double colatitude(index_t i) const {
    return kPi * static_cast<double>(i) / static_cast<double>(nlat - 1);
  }
  double longitude(index_t j) const {
    return kTwoPi * static_cast<double>(j) / static_cast<double>(nlon);
  }
  index_t num_points() const { return nlat * nlon; }
};

/// The analytic integral I(q) of Eq. (8).
double colatitude_integral(index_t q);

/// Reusable SHT of fixed band limit and grid. Construction precomputes the
/// Wigner-d(pi/2) table, the Legendre table, FFT plans, the I(q) table, and a
/// flat table of fused products d^l_{n,0} * d^l_{n,m} (the paper's
/// pre-computation strategy); analyze/synthesize are then thread-safe, run
/// their ring/order loops on the shared worker pool, and reuse per-thread
/// scratch buffers, so many time slots can be transformed concurrently.
class SHTPlan {
 public:
  SHTPlan(index_t band_limit, GridShape grid);

  index_t band_limit() const { return band_limit_; }
  const GridShape& grid() const { return grid_; }

  /// Forward analysis of a real row-major field (nlat x nlon) into packed
  /// complex coefficients z_{l,m}, m >= 0 (tri_index layout).
  std::vector<cplx> analyze(std::span<const double> field) const;

  /// Synthesis of a real row-major field from packed complex coefficients.
  std::vector<double> synthesize(std::span<const cplx> coeffs) const;

  /// The same synthesis into caller storage of nlat * nlon values: the one
  /// routine behind every synthesis, allocation-free per call.
  void synthesize(std::span<const cplx> coeffs, std::span<double> field) const;

  /// Power spectrum C_l = (1/(2l+1)) sum_m |z_{l,m}|^2 (over all m, using the
  /// real-field symmetry for m < 0).
  std::vector<double> power_spectrum(std::span<const cplx> coeffs) const;

 private:
  index_t band_limit_;
  GridShape grid_;
  std::shared_ptr<const WignerPiHalfTable> wigner_;
  std::unique_ptr<LegendreTable> legendre_;
  std::shared_ptr<const fft::Plan> fft_lon_;
  std::shared_ptr<const fft::Plan> fft_colat_;
  std::vector<double> i_even_;  // I(q) for even q, packed at (q+2L-2)/2
  index_t n_ext_ = 0;           // 2*nlat - 2

  // Fused Wigner products for the analysis Step 4: row tri_index(l, m) holds
  // d^l_{n,0}(pi/2) * d^l_{n,m}(pi/2) for n = -l..l, so the per-coefficient
  // reduction is a contiguous real-times-complex dot product.
  std::vector<double> fused_wigner_;
  std::vector<index_t> fused_offset_;  // offset of row (l, m), tri_index order
};

/// Reference forward analysis via brute-force quadrature of Eq. (4) using
/// trapezoid integration over an oversampled theta grid; slow (used only as a
/// low-degree testing oracle).
std::vector<cplx> analyze_reference(index_t band_limit, GridShape grid,
                                    std::span<const double> field);

}  // namespace exaclim::sht
