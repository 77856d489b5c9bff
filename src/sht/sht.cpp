#include "sht/sht.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "sht/packing.hpp"

namespace exaclim::sht {

double colatitude_integral(index_t q) {
  // I(q) = int_0^pi e^{i q theta} sin(theta) dtheta (Eq. 8). The value is
  // real for even q and imaginary for odd q; only |q| = 1 survives among odd
  // q. We return the real coefficient and let callers apply the i factor —
  // but it is simpler to fold the full complex value into the W accumulation,
  // so this helper returns the *real* part for even q and is not used for
  // odd q (see SHTPlan::analyze). Kept public for tests.
  EXACLIM_CHECK(q % 2 == 0, "colatitude_integral handles even q; odd q is "
                            "imaginary and handled inline");
  const double qd = static_cast<double>(q);
  return 2.0 / (1.0 - qd * qd);
}

SHTPlan::SHTPlan(index_t band_limit, GridShape grid)
    : band_limit_(band_limit), grid_(grid) {
  EXACLIM_CHECK(band_limit >= 1, "band_limit must be >= 1");
  EXACLIM_CHECK(grid.nlat >= band_limit + 1,
                "need nlat >= L + 1 for exact colatitude recovery");
  EXACLIM_CHECK(grid.nlon >= 2 * band_limit - 1,
                "need nlon >= 2L - 1 for exact longitude recovery");
  wigner_ = get_wigner_table(band_limit);
  std::vector<double> colats(static_cast<std::size_t>(grid.nlat));
  for (index_t i = 0; i < grid.nlat; ++i) {
    colats[static_cast<std::size_t>(i)] = grid.colatitude(i);
  }
  legendre_ = std::make_unique<LegendreTable>(band_limit, colats);
  fft_lon_ = fft::get_plan(grid.nlon);
  n_ext_ = 2 * grid.nlat - 2;
  fft_colat_ = fft::get_plan(n_ext_);

  // Densely packed even-q I(q) table for q in [-(2L-2), 2L-2]: the W
  // accumulation in analyze Steps 2-3 walks it with unit stride. Odd q never
  // need a table — I(q) vanishes for odd |q| > 1 and the q = +-1 values
  // (+-i pi/2) are patched inline.
  const index_t qmax = 2 * (band_limit_ - 1);
  i_even_.resize(static_cast<std::size_t>(2 * band_limit_ - 1));
  for (index_t q = -qmax; q <= qmax; q += 2) {
    i_even_[static_cast<std::size_t>((q + qmax) / 2)] = colatitude_integral(q);
  }

  // Fused Wigner products d^l_{n,0} * d^l_{n,m} for Step 4 of the analysis,
  // flattened so each (l, m) row of 2l+1 values is contiguous.
  fused_offset_.resize(static_cast<std::size_t>(tri_count(band_limit_)));
  index_t total = 0;
  for (index_t l = 0; l < band_limit_; ++l) {
    for (index_t m = 0; m <= l; ++m) {
      fused_offset_[static_cast<std::size_t>(tri_index(l, m))] = total;
      total += 2 * l + 1;
    }
  }
  fused_wigner_.resize(static_cast<std::size_t>(total));
  common::parallel_for(0, band_limit_, [&](index_t l) {
    for (index_t m = 0; m <= l; ++m) {
      double* row = fused_wigner_.data() +
                    fused_offset_[static_cast<std::size_t>(tri_index(l, m))];
      for (index_t n = -l; n <= l; ++n) {
        row[n + l] = wigner_->value(l, n, 0) * wigner_->value(l, n, m);
      }
    }
  });
}

std::vector<cplx> SHTPlan::analyze(std::span<const double> field) const {
  EXACLIM_CHECK(static_cast<index_t>(field.size()) == grid_.num_points(),
                "field size must be nlat*nlon");
  const index_t L = band_limit_;
  const index_t nlat = grid_.nlat;
  const index_t nlon = grid_.nlon;

  // Step 1: G_m(theta_i) for m = 0..L-1 (real field: negative m are
  // conjugates and never needed, because we only output z_{l,m>=0}).
  // Layout: gm[m * nlat + i]. Rings are independent; each worker keeps a
  // persistent FFT scratch row across calls.
  std::vector<cplx> gm(static_cast<std::size_t>(L * nlat));
  {
    const double scale = kTwoPi / static_cast<double>(nlon);
    common::parallel_for(0, nlat, [&](index_t i) {
      thread_local std::vector<cplx> row;
      row.resize(static_cast<std::size_t>(nlon));
      for (index_t j = 0; j < nlon; ++j) {
        row[static_cast<std::size_t>(j)] =
            cplx{field[static_cast<std::size_t>(i * nlon + j)], 0.0};
      }
      fft_lon_->forward(row.data());
      for (index_t m = 0; m < L; ++m) {
        gm[static_cast<std::size_t>(m * nlat + i)] =
            scale * row[static_cast<std::size_t>(m)];
      }
    });
  }

  // Steps 2-3: per order m, extend along colatitude, recover K_{m,m'}, and
  // accumulate W_{m,n} = sum_{m'} K_{m,m'} I(n + m'). Orders are independent.
  //
  // I(q) vanishes for odd |q| > 1, so the sum regroups by parity: even
  // q = n + m' means m' must share n's parity, and splitting the K values
  // into even/odd-m' real/imag arrays turns the per-n reduction into
  // contiguous branch-free dot products against the packed i_even_ table
  // (the seed walked every (m', n) pair and branched on a zero test per
  // term). The only odd-q survivors, q = +-1, are patched in afterwards.
  // Layout: w[m * (2L-1) + (n + L-1)].
  const index_t nw = 2 * L - 1;
  std::vector<cplx> w(static_cast<std::size_t>(L * nw));
  {
    const index_t qmax = 2 * (L - 1);
    const index_t off = L - 1;  // array offset for signed m' and n
    // Lowest/highest even and odd m' in [-(L-1), L-1], and their counts.
    const index_t mp_even0 = (off % 2 == 0) ? -off : -(off - 1);
    const index_t mp_odd0 = (off % 2 == 0) ? -(off - 1) : -off;
    const index_t mp_even_last = (off % 2 == 0) ? off : off - 1;
    const index_t mp_odd_last = (off % 2 == 0) ? off - 1 : off;
    const index_t n_even = (mp_even_last - mp_even0) / 2 + 1;
    const index_t n_odd = off > 0 ? (mp_odd_last - mp_odd0) / 2 + 1 : 0;
    common::parallel_for(0, L, [&](index_t m) {
      thread_local std::vector<cplx> ext;
      thread_local std::vector<cplx> kvals;
      thread_local std::vector<double> ksplit;
      ext.resize(static_cast<std::size_t>(n_ext_));
      kvals.resize(static_cast<std::size_t>(nw));
      ksplit.resize(static_cast<std::size_t>(2 * (n_even + n_odd)));
      const double sign = (m % 2 == 0) ? 1.0 : -1.0;
      const cplx* g = gm.data() + static_cast<std::size_t>(m * nlat);
      for (index_t k = 0; k < nlat; ++k) ext[static_cast<std::size_t>(k)] = g[k];
      for (index_t k = nlat; k < n_ext_; ++k) {
        ext[static_cast<std::size_t>(k)] = sign * g[n_ext_ - k];
      }
      fft_colat_->forward(ext.data());
      const double inv_next = 1.0 / static_cast<double>(n_ext_);
      // K_{m,m'} = ext-bin(m' mod n_ext) / n_ext for |m'| <= L-1.
      for (index_t mp = -off; mp <= off; ++mp) {
        const index_t bin = (mp % n_ext_ + n_ext_) % n_ext_;
        kvals[static_cast<std::size_t>(mp + off)] =
            ext[static_cast<std::size_t>(bin)] * inv_next;
      }
      // Parity-split K into packed re/im arrays.
      double* ke_re = ksplit.data();
      double* ke_im = ke_re + n_even;
      double* ko_re = ke_im + n_even;
      double* ko_im = ko_re + n_odd;
      for (index_t s = 0; s < n_even; ++s) {
        const cplx v = kvals[static_cast<std::size_t>(mp_even0 + 2 * s + off)];
        ke_re[s] = v.real();
        ke_im[s] = v.imag();
      }
      for (index_t s = 0; s < n_odd; ++s) {
        const cplx v = kvals[static_cast<std::size_t>(mp_odd0 + 2 * s + off)];
        ko_re[s] = v.real();
        ko_im[s] = v.imag();
      }
      cplx* wrow = w.data() + static_cast<std::size_t>(m * nw);
      for (index_t n = -off; n <= off; ++n) {
        const bool even_n = ((n % 2) + 2) % 2 == 0;
        const index_t mp0 = even_n ? mp_even0 : mp_odd0;
        const index_t cnt = even_n ? n_even : n_odd;
        const double* kre = even_n ? ke_re : ko_re;
        const double* kim = even_n ? ke_im : ko_im;
        const double* ie =
            i_even_.data() + static_cast<std::size_t>((n + mp0 + qmax) / 2);
        double re = 0.0, im = 0.0;
        for (index_t s = 0; s < cnt; ++s) {
          re += kre[s] * ie[s];
          im += kim[s] * ie[s];
        }
        // Odd-q patch: I(+-1) = +-i pi/2 at m' = +-1 - n.
        cplx acc{re, im};
        if (std::abs(1 - n) <= off) {
          acc += kvals[static_cast<std::size_t>(1 - n + off)] *
                 cplx{0.0, kPi / 2.0};
        }
        if (std::abs(-1 - n) <= off) {
          acc += kvals[static_cast<std::size_t>(-1 - n + off)] *
                 cplx{0.0, -kPi / 2.0};
        }
        wrow[static_cast<std::size_t>(n + off)] = acc;
      }
    });
  }

  // Step 4: z_{l,m} = i^{-m} sqrt((2l+1)/(4 pi)) *
  //                   sum_{n=-l}^{l} d_{n,0} d_{n,m} W_{m,n}.
  // The Wigner products are prefused per (l, m) into fused_wigner_, so the
  // reduction is a contiguous dot product; per-l coefficient slices are
  // disjoint (tri_index(l, 0..l) is contiguous).
  std::vector<cplx> coeffs(static_cast<std::size_t>(tri_count(L)));
  static const cplx kIPowNeg[4] = {cplx{1, 0}, cplx{0, -1}, cplx{-1, 0},
                                   cplx{0, 1}};
  common::parallel_for(0, L, [&](index_t l) {
    const double norm = std::sqrt((2.0 * l + 1.0) / (4.0 * kPi));
    const index_t len = 2 * l + 1;
    for (index_t m = 0; m <= l; ++m) {
      const double* f = fused_wigner_.data() +
                        fused_offset_[static_cast<std::size_t>(tri_index(l, m))];
      const cplx* ws =
          w.data() + static_cast<std::size_t>(m * nw + (L - 1 - l));
      double re = 0.0, im = 0.0;
      for (index_t t = 0; t < len; ++t) {
        re += f[t] * ws[t].real();
        im += f[t] * ws[t].imag();
      }
      coeffs[static_cast<std::size_t>(tri_index(l, m))] =
          kIPowNeg[m % 4] * norm * cplx{re, im};
    }
  });
  return coeffs;
}

std::vector<double> SHTPlan::synthesize(std::span<const cplx> coeffs) const {
  std::vector<double> field(static_cast<std::size_t>(grid_.num_points()));
  synthesize(coeffs, field);
  return field;
}

void SHTPlan::synthesize(std::span<const cplx> coeffs,
                         std::span<double> field) const {
  EXACLIM_CHECK(static_cast<index_t>(coeffs.size()) == tri_count(band_limit_),
                "coefficient count must match band limit");
  EXACLIM_CHECK(static_cast<index_t>(field.size()) == grid_.num_points(),
                "field size must be nlat*nlon");
  const index_t L = band_limit_;
  const index_t nlat = grid_.nlat;
  const index_t nlon = grid_.nlon;

  // Rings are independent: each worker reuses persistent FFT/accumulator
  // scratch across rings and across synthesize calls.
  common::parallel_for(0, nlat, [&](index_t i) {
    thread_local std::vector<cplx> bins;
    thread_local std::vector<cplx> h;
    bins.resize(static_cast<std::size_t>(nlon));
    h.resize(static_cast<std::size_t>(L));
    const double* leg = legendre_->row(i);
    // H_m(theta_i) = sum_{l >= m} z_{l,m} Pbar_l^m(cos theta_i).
    for (index_t m = 0; m < L; ++m) {
      cplx acc{0.0, 0.0};
      for (index_t l = m; l < L; ++l) {
        acc += coeffs[static_cast<std::size_t>(tri_index(l, m))] *
               leg[tri_index(l, m)];
      }
      h[static_cast<std::size_t>(m)] = acc;
    }
    // Z(theta_i, phi_j) = sum_m H_m e^{i m phi_j}; real-field symmetry puts
    // conj(H_m) into the negative-frequency bins.
    std::fill(bins.begin(), bins.end(), cplx{0.0, 0.0});
    bins[0] = h[0];
    for (index_t m = 1; m < L; ++m) {
      bins[static_cast<std::size_t>(m)] += h[static_cast<std::size_t>(m)];
      bins[static_cast<std::size_t>(nlon - m)] +=
          std::conj(h[static_cast<std::size_t>(m)]);
    }
    fft_lon_->inverse(bins.data());
    for (index_t j = 0; j < nlon; ++j) {
      field[static_cast<std::size_t>(i * nlon + j)] =
          bins[static_cast<std::size_t>(j)].real() * static_cast<double>(nlon);
    }
  });
}

std::vector<double> SHTPlan::power_spectrum(std::span<const cplx> coeffs) const {
  EXACLIM_CHECK(static_cast<index_t>(coeffs.size()) == tri_count(band_limit_),
                "coefficient count must match band limit");
  std::vector<double> spectrum(static_cast<std::size_t>(band_limit_), 0.0);
  for (index_t l = 0; l < band_limit_; ++l) {
    double acc = std::norm(coeffs[static_cast<std::size_t>(tri_index(l, 0))]);
    for (index_t m = 1; m <= l; ++m) {
      acc += 2.0 * std::norm(coeffs[static_cast<std::size_t>(tri_index(l, m))]);
    }
    spectrum[static_cast<std::size_t>(l)] = acc / (2.0 * l + 1.0);
  }
  return spectrum;
}

std::vector<cplx> analyze_reference(index_t band_limit, GridShape grid,
                                    std::span<const double> field) {
  EXACLIM_CHECK(static_cast<index_t>(field.size()) == grid.num_points(),
                "field size must be nlat*nlon");
  const index_t n_coeff = band_limit * band_limit;  // packed real dimension
  const index_t n_pts = grid.num_points();
  EXACLIM_CHECK(n_pts >= n_coeff,
                "reference least-squares needs at least L^2 grid points");

  // Build the synthesis design matrix B (n_pts x n_coeff) over the packed
  // real representation, then solve the normal equations B^T B c = B^T y.
  // The accumulation is a chunk-deterministic parallel_reduce over rings:
  // identical chunk boundaries and combine order at any thread count, so the
  // oracle stays bit-stable (it backs bit-identity tests elsewhere).
  struct NormalEq {
    std::vector<double> btb;
    std::vector<double> bty;
  };
  NormalEq init;
  init.btb.assign(static_cast<std::size_t>(n_coeff * n_coeff), 0.0);
  init.bty.assign(static_cast<std::size_t>(n_coeff), 0.0);
  const double sqrt2 = std::sqrt(2.0);

  NormalEq normal = common::parallel_reduce(
      0, grid.nlat, init,
      [&](NormalEq& acc, index_t i) {
        std::vector<double> leg;
        std::vector<double> row(static_cast<std::size_t>(n_coeff));
        legendre_all(band_limit, std::cos(grid.colatitude(i)), leg);
        for (index_t j = 0; j < grid.nlon; ++j) {
          const double phi = grid.longitude(j);
          for (index_t l = 0; l < band_limit; ++l) {
            index_t out = l * l;
            row[static_cast<std::size_t>(out++)] =
                leg[static_cast<std::size_t>(tri_index(l, 0))];
            for (index_t m = 1; m <= l; ++m) {
              const double p = leg[static_cast<std::size_t>(tri_index(l, m))];
              row[static_cast<std::size_t>(out++)] =
                  sqrt2 * p * std::cos(m * phi);
              row[static_cast<std::size_t>(out++)] =
                  -sqrt2 * p * std::sin(m * phi);
            }
          }
          const double y = field[static_cast<std::size_t>(i * grid.nlon + j)];
          for (index_t a = 0; a < n_coeff; ++a) {
            acc.bty[static_cast<std::size_t>(a)] +=
                row[static_cast<std::size_t>(a)] * y;
            for (index_t b = a; b < n_coeff; ++b) {
              acc.btb[static_cast<std::size_t>(a * n_coeff + b)] +=
                  row[static_cast<std::size_t>(a)] *
                  row[static_cast<std::size_t>(b)];
            }
          }
        }
      },
      [](NormalEq& into, NormalEq&& from) {
        for (std::size_t k = 0; k < into.btb.size(); ++k) {
          into.btb[k] += from.btb[k];
        }
        for (std::size_t k = 0; k < into.bty.size(); ++k) {
          into.bty[k] += from.bty[k];
        }
      });
  std::vector<double> bt_b = std::move(normal.btb);
  std::vector<double> bt_y = std::move(normal.bty);
  // Symmetrize and solve with plain Gaussian elimination w/ partial pivoting
  // (self-contained so the SHT oracle does not depend on linalg/).
  for (index_t a = 0; a < n_coeff; ++a) {
    for (index_t b = 0; b < a; ++b) {
      bt_b[static_cast<std::size_t>(a * n_coeff + b)] =
          bt_b[static_cast<std::size_t>(b * n_coeff + a)];
    }
  }
  std::vector<double> x = bt_y;
  for (index_t col = 0; col < n_coeff; ++col) {
    index_t pivot = col;
    for (index_t r = col + 1; r < n_coeff; ++r) {
      if (std::abs(bt_b[static_cast<std::size_t>(r * n_coeff + col)]) >
          std::abs(bt_b[static_cast<std::size_t>(pivot * n_coeff + col)])) {
        pivot = r;
      }
    }
    EXACLIM_NUMERIC_CHECK(
        std::abs(bt_b[static_cast<std::size_t>(pivot * n_coeff + col)]) > 1e-12,
        "singular reference design matrix");
    if (pivot != col) {
      for (index_t c = 0; c < n_coeff; ++c) {
        std::swap(bt_b[static_cast<std::size_t>(col * n_coeff + c)],
                  bt_b[static_cast<std::size_t>(pivot * n_coeff + c)]);
      }
      std::swap(x[static_cast<std::size_t>(col)],
                x[static_cast<std::size_t>(pivot)]);
    }
    const double inv_p = 1.0 / bt_b[static_cast<std::size_t>(col * n_coeff + col)];
    for (index_t r = col + 1; r < n_coeff; ++r) {
      const double f =
          bt_b[static_cast<std::size_t>(r * n_coeff + col)] * inv_p;
      if (f == 0.0) continue;
      for (index_t c = col; c < n_coeff; ++c) {
        bt_b[static_cast<std::size_t>(r * n_coeff + c)] -=
            f * bt_b[static_cast<std::size_t>(col * n_coeff + c)];
      }
      x[static_cast<std::size_t>(r)] -= f * x[static_cast<std::size_t>(col)];
    }
  }
  for (index_t r = n_coeff - 1; r >= 0; --r) {
    double acc = x[static_cast<std::size_t>(r)];
    for (index_t c = r + 1; c < n_coeff; ++c) {
      acc -= bt_b[static_cast<std::size_t>(r * n_coeff + c)] *
             x[static_cast<std::size_t>(c)];
    }
    x[static_cast<std::size_t>(r)] =
        acc / bt_b[static_cast<std::size_t>(r * n_coeff + r)];
  }
  return unpack_real(band_limit, x);
}

}  // namespace exaclim::sht
