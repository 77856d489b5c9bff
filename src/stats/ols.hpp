// Ordinary least squares via normal equations.
//
// Used by the per-location trend fit (Eq. 2 is linear once rho is fixed) and
// the per-coefficient AR(P) fit. Design matrices here are tall and skinny
// (T x ~13), so normal equations + dense Cholesky are both fast and accurate.
// normal_factor is public so a fit that shares one design across many
// right-hand sides (stats::fit_trends) factors X^T X once.
#pragma once

#include <span>

#include "linalg/matrix.hpp"

namespace exaclim::stats {

struct OlsFit {
  std::vector<double> beta;   ///< coefficient estimates
  double sse = 0.0;           ///< sum of squared residuals
  double sigma = 0.0;         ///< residual standard deviation (dof-corrected)
};

/// Fits y ~ X beta. Rank deficiency is handled with a tiny ridge on the
/// normal equations (the fit is used inside a profile search, so graceful
/// degradation beats hard failure).
OlsFit ols(const linalg::Matrix& x, std::span<const double> y);

/// Lower Cholesky factor of X^T X plus ols's ridge; needs rows > cols.
linalg::Matrix normal_factor(const linalg::Matrix& x);

}  // namespace exaclim::stats
