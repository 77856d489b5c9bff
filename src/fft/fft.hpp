// From-scratch complex FFT.
//
// The SHT of the paper (Eq. 4-8) needs DFTs along longitude (length N_phi)
// and along the extended colatitude (length 2*N_theta - 2); neither is a
// power of two for ERA5-style grids (N_phi = 1440 = 2^5 3^2 5, N_theta = 721).
//
// One engine does the arithmetic: a mixed-radix Stockham autosort DIF
// transform (Frigo & Johnson, "The Design and Implementation of FFTW3",
// Proc. IEEE 2005) for every length whose prime factors are all <= 7. It
// factors n into radices 4 (while they divide), 2, 3, 5, 7 and ping-pongs
// between the caller's buffer and a scratch buffer, natural order in and
// out; radices 2, 3 and 4 have specialized butterflies, 5 and 7 a generic
// odd-radix kernel. A length with a prime factor > 7 takes Bluestein's
// chirp-z algorithm, whose convolution of length next_pow2(2n - 1) runs on
// the same engine. Twiddles, the chirp and the convolution filter's FFT are
// built once per length behind a cached Plan.
//
// Scratch lives in one thread_local buffer per thread, grown to the largest
// need seen (n values for the engine, 2 * next_pow2(2n - 1) for Bluestein),
// so execute allocates only when a thread first meets a larger length.
//
// Conventions:
//   forward:  X[k] = sum_n x[n] * exp(-2*pi*i*n*k/N)
//   inverse:  x[n] = (1/N) * sum_k X[k] * exp(+2*pi*i*n*k/N)
// so inverse(forward(x)) == x. The inverse is conj(forward(conj x)) / N.
#pragma once

#include <memory>
#include <vector>

#include "common/types.hpp"

namespace exaclim::fft {

/// A reusable transform of fixed length. Thread-safe for concurrent execute
/// calls once constructed: the plan's tables are read-only, and all mutable
/// state lives in the caller's buffer and the calling thread's scratch.
class Plan {
 public:
  /// Builds a plan for length n >= 1.
  explicit Plan(index_t n);
  ~Plan();
  Plan(Plan&&) noexcept;
  Plan& operator=(Plan&&) noexcept;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  index_t size() const;

  /// In-place forward DFT of `data` (length must equal size()).
  void forward(cplx* data) const;
  /// In-place inverse DFT (normalized by 1/N).
  void inverse(cplx* data) const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Process-wide plan cache keyed by length. Returns a shared plan; safe to
/// call concurrently.
std::shared_ptr<const Plan> get_plan(index_t n);

/// Convenience one-shot transforms (use the plan cache).
void forward(std::vector<cplx>& data);
void inverse(std::vector<cplx>& data);

/// Naive O(N^2) DFT used as a testing oracle.
std::vector<cplx> dft_reference(const std::vector<cplx>& x, bool inverse_dir);

}  // namespace exaclim::fft
