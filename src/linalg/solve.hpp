// The dense sampling reference and the diagonal jitter.
#pragma once

#include <span>

#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace exaclim::linalg {

/// Draws x ~ N(0, L L^T) given the lower Cholesky factor L: x = L z with
/// z ~ N(0, I). The dense reference that tests and benchmarks compare the
/// sampling engine (runtime::sample_panel) against; no library caller.
std::vector<double> sample_mvn(const Matrix& chol_factor, common::Rng& rng);

/// Adds eps to the diagonal in place (the paper's "minor perturbation along
/// the diagonal" when R(T - P) < L^2 makes the empirical covariance rank
/// deficient).
void add_diagonal_jitter(Matrix& a, double eps);

}  // namespace exaclim::linalg
