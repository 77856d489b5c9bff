// Empirical covariance of VAR innovations (Eq. 9) and its deficiency jitter.
//
// empirical_covariance_parallel packs the samples into 8-column panels and
// computes the output's lower triangle in 8 x 16 register blocks. Its
// contract is per entry: one accumulator that starts at 0.0, one
// multiply-add per sample in ascending sample order, then a scale by 1/N
// and a mirror to the upper triangle. That is the scalar loop's order, so
// U-hat is byte-identical to empirical_covariance_ref at any thread count
// (docs/PERF.md, "Training kernels").
#pragma once

#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace exaclim::stats {

/// U-hat = (1 / N) sum_n xi_n xi_n^T over N sample vectors of dimension d
/// (Eq. 9 with N = R (T - P)). Samples are rows of `samples` (N x d).
linalg::Matrix empirical_covariance(const linalg::Matrix& samples);

/// Same, parallelized over blocks of the output's lower triangle (the
/// O(L^4 T) step of the paper's training pipeline); threads = 0 uses the
/// team width.
linalg::Matrix empirical_covariance_parallel(const linalg::Matrix& samples,
                                             unsigned threads = 0);

/// The scalar triple loop the blocked kernel replaced, parallel over output
/// rows: the byte oracle its parity tests compare against.
linalg::Matrix empirical_covariance_ref(const linalg::Matrix& samples,
                                        unsigned threads = 0);

/// Result of the covariance preparation step.
struct PreparedCovariance {
  linalg::Matrix u;        ///< (possibly jittered) covariance
  double jitter = 0.0;     ///< diagonal perturbation applied
  bool was_deficient = false;  ///< true iff N < d (paper's R(T-P) < L^2 case)
  /// 1e-10 x the mean of the raw diagonal: the deficiency jitter, and the
  /// first rung of the training factor step's jitter ladder.
  double jitter_unit = 0.0;
};

/// Builds U-hat and, when the sample count is below the dimension, applies
/// the paper's "minor perturbation along the diagonal" (jitter_unit). It
/// does not prove the result definite: the tiled factorization does, and
/// core::train_variables climbs a jitter ladder when it fails.
///
/// Pre-checks run before any tile is built from the result: a non-finite
/// entry or a non-positive diagonal in the raw empirical covariance throws
/// NumericalError naming the offending (row, col) — malformed input fails
/// here, structurally, instead of deep inside the factorization DAG.
/// `threads` (0 = team width) bounds the kernel, the non-finite scan and the
/// diagonal reduce; the result is byte-identical at any value.
PreparedCovariance prepare_covariance(const linalg::Matrix& samples,
                                      unsigned threads = 0);

}  // namespace exaclim::stats
