// Tests for fft/: the mixed-radix Stockham engine (7-smooth lengths) and
// Bluestein's chirp-z (lengths with a prime factor > 7) against the naive
// DFT, plus an accuracy contract against a long double DFT.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fft/fft.hpp"

namespace {

using namespace exaclim;

std::vector<cplx> random_signal(index_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<cplx> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.normal(), rng.normal()};
  return x;
}

double max_abs_diff(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

// DFT of x in long double, twiddle angles reduced in integers: the oracle
// of the accuracy contract, exact to ~n * 2^-64.
std::vector<std::complex<long double>> dft_long_double(
    const std::vector<cplx>& x, bool inverse_dir) {
  const index_t n = static_cast<index_t>(x.size());
  const long double pi = 3.141592653589793238462643383279502884L;
  const long double sign = inverse_dir ? 1.0L : -1.0L;
  std::vector<std::complex<long double>> roots(x.size());
  for (index_t t = 0; t < n; ++t) {
    const long double ang = sign * 2.0L * pi * static_cast<long double>(t) /
                            static_cast<long double>(n);
    roots[static_cast<std::size_t>(t)] = {std::cos(ang), std::sin(ang)};
  }
  std::vector<std::complex<long double>> out(x.size());
  for (index_t k = 0; k < n; ++k) {
    std::complex<long double> acc{0.0L, 0.0L};
    for (index_t j = 0; j < n; ++j) {
      const std::complex<long double> v{x[static_cast<std::size_t>(j)].real(),
                                        x[static_cast<std::size_t>(j)].imag()};
      acc += v * roots[static_cast<std::size_t>((j * k) % n)];
    }
    out[static_cast<std::size_t>(k)] =
        inverse_dir ? acc / static_cast<long double>(n) : acc;
  }
  return out;
}

double relative_l2_error(const std::vector<cplx>& got,
                         const std::vector<std::complex<long double>>& ref) {
  long double err = 0.0L;
  long double norm = 0.0L;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const std::complex<long double> g{got[i].real(), got[i].imag()};
    err += std::norm(g - ref[i]);
    norm += std::norm(ref[i]);
  }
  return static_cast<double>(std::sqrt(err / norm));
}

// Length of the transform that does the arithmetic: n itself on the
// Stockham path, the power-of-two convolution length on the Bluestein path.
index_t effective_length(index_t n) {
  index_t r = n;
  for (index_t p : {2, 3, 5, 7}) {
    while (r % p == 0) r /= p;
  }
  if (r == 1) return n;
  index_t m = 1;
  while (m < 2 * n - 1) m *= 2;
  return m;
}

class FftSizes : public ::testing::TestWithParam<index_t> {};

TEST_P(FftSizes, RelativeErrorWithinFftBound) {
  // Higham, Accuracy and Stability of Numerical Algorithms (2nd ed.),
  // Thm 24.2: a log2(n)-stage FFT with twiddles accurate to u has relative
  // l2 error <= log2(n) * eta / (1 - log2(n) * eta), eta = u + gamma_4
  // (sqrt 2 + u) ~ 6.7 u. We require 7 * ceil(log2 n_eff) * u.
  const index_t n = GetParam();
  const index_t n_eff = effective_length(n);
  int stages = 0;
  while ((index_t{1} << stages) < n_eff) ++stages;
  const double bound = 7.0 * stages * 0x1.0p-53;
  const auto x = random_signal(n, 500 + static_cast<std::uint64_t>(n));
  auto y = x;
  fft::forward(y);
  EXPECT_LE(relative_l2_error(y, dft_long_double(x, false)), bound)
      << "forward n=" << n;
  auto z = x;
  fft::inverse(z);
  EXPECT_LE(relative_l2_error(z, dft_long_double(x, true)), bound)
      << "inverse n=" << n;
}

TEST_P(FftSizes, ForwardMatchesNaiveDft) {
  const index_t n = GetParam();
  auto x = random_signal(n, 100 + static_cast<std::uint64_t>(n));
  const auto expect = fft::dft_reference(x, false);
  fft::forward(x);
  EXPECT_LT(max_abs_diff(x, expect), 1e-9 * std::sqrt(static_cast<double>(n)))
      << "n=" << n;
}

TEST_P(FftSizes, InverseMatchesNaiveDft) {
  const index_t n = GetParam();
  auto x = random_signal(n, 200 + static_cast<std::uint64_t>(n));
  const auto expect = fft::dft_reference(x, true);
  fft::inverse(x);
  EXPECT_LT(max_abs_diff(x, expect), 1e-9) << "n=" << n;
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const index_t n = GetParam();
  const auto original = random_signal(n, 300 + static_cast<std::uint64_t>(n));
  auto x = original;
  fft::forward(x);
  fft::inverse(x);
  EXPECT_LT(max_abs_diff(x, original), 1e-10) << "n=" << n;
}

TEST_P(FftSizes, ParsevalHolds) {
  const index_t n = GetParam();
  auto x = random_signal(n, 400 + static_cast<std::uint64_t>(n));
  double time_energy = 0.0;
  for (const auto& v : x) time_energy += std::norm(v);
  fft::forward(x);
  double freq_energy = 0.0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / static_cast<double>(n), time_energy,
              1e-8 * time_energy);
}

// Every Stockham radix alone and mixed (powers of two, 3, 5, 7, 14, 28,
// 49, 343, 1260 = 2^2 3^2 5 7), lengths with a prime factor > 7 (Bluestein
// path), and the SHT-relevant lengths: 60 and 56 (pipebench's daily rings),
// 192, 1440 (ERA5 longitudes and its 2 * 721 - 2 colatitude extension).
INSTANTIATE_TEST_SUITE_P(
    Sweep, FftSizes,
    ::testing::Values<index_t>(1, 2, 3, 4, 5, 7, 8, 11, 13, 14, 16, 17, 28,
                               31, 32, 45, 49, 56, 60, 64, 97, 100, 128, 192,
                               210, 256, 343, 360, 719, 720, 1024, 1260,
                               1440));

TEST(Fft, ImpulseGivesFlatSpectrum) {
  std::vector<cplx> x(64, cplx{0.0, 0.0});
  x[0] = {1.0, 0.0};
  fft::forward(x);
  for (const auto& v : x) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  const index_t n = 48;
  const index_t k0 = 5;
  std::vector<cplx> x(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    const double ang = kTwoPi * static_cast<double>(k0 * j) / static_cast<double>(n);
    x[static_cast<std::size_t>(j)] = {std::cos(ang), std::sin(ang)};
  }
  fft::forward(x);
  for (index_t k = 0; k < n; ++k) {
    const double mag = std::abs(x[static_cast<std::size_t>(k)]);
    if (k == k0) {
      EXPECT_NEAR(mag, static_cast<double>(n), 1e-9);
    } else {
      EXPECT_NEAR(mag, 0.0, 1e-9);
    }
  }
}

TEST(Fft, LinearityHolds) {
  const index_t n = 37;
  auto x = random_signal(n, 1);
  auto y = random_signal(n, 2);
  std::vector<cplx> z(static_cast<std::size_t>(n));
  const cplx a{2.0, -1.0};
  const cplx b{0.5, 3.0};
  for (index_t i = 0; i < n; ++i) {
    z[static_cast<std::size_t>(i)] = a * x[static_cast<std::size_t>(i)] +
                                     b * y[static_cast<std::size_t>(i)];
  }
  fft::forward(x);
  fft::forward(y);
  fft::forward(z);
  for (index_t i = 0; i < n; ++i) {
    const cplx expect = a * x[static_cast<std::size_t>(i)] +
                        b * y[static_cast<std::size_t>(i)];
    EXPECT_LT(std::abs(z[static_cast<std::size_t>(i)] - expect), 1e-9);
  }
}

TEST(Fft, PlanIsReusable) {
  const auto plan = fft::get_plan(60);
  EXPECT_EQ(plan->size(), 60);
  auto x = random_signal(60, 9);
  auto y = x;
  plan->forward(x.data());
  plan->forward(y.data());
  EXPECT_EQ(max_abs_diff(x, y), 0.0);  // identical runs, identical results
}

TEST(Fft, PlanCacheReturnsSameObject) {
  const auto a = fft::get_plan(123);
  const auto b = fft::get_plan(123);
  EXPECT_EQ(a.get(), b.get());
}

TEST(Fft, RejectsZeroLength) {
  EXPECT_THROW(fft::Plan(0), InvalidArgument);
}

TEST(Fft, LengthOneIsIdentity) {
  std::vector<cplx> x = {cplx{3.5, -2.0}};
  fft::forward(x);
  EXPECT_EQ(x[0], (cplx{3.5, -2.0}));
  fft::inverse(x);
  EXPECT_EQ(x[0], (cplx{3.5, -2.0}));
}

TEST(Fft, RealInputHasConjugateSymmetry) {
  const index_t n = 30;
  common::Rng rng(77);
  std::vector<cplx> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = {rng.normal(), 0.0};
  fft::forward(x);
  for (index_t k = 1; k < n; ++k) {
    const cplx expect = std::conj(x[static_cast<std::size_t>(n - k)]);
    EXPECT_LT(std::abs(x[static_cast<std::size_t>(k)] - expect), 1e-10);
  }
}

}  // namespace
