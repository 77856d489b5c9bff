#include "stats/ols.hpp"

#include <cmath>

#include "common/error.hpp"
#include "linalg/solve.hpp"

namespace exaclim::stats {

OlsFit ols(const linalg::Matrix& x, std::span<const double> y) {
  const index_t n = x.rows();
  const index_t p = x.cols();
  EXACLIM_CHECK(n == static_cast<index_t>(y.size()),
                "design matrix rows must match observation count");
  // Normal equations: (X^T X) beta = X^T y. Each X^T y entry is one
  // multiply-add chain, fused where the hardware has FMA: the chain GCC
  // contracts to anyway, written out so that no build (e.g. one whose
  // bounds assertions split the multiply from the add) leaves it unfused.
  // stats::fit_trends forms the same chains.
  const linalg::Matrix xtx = normal_factor(x);
  std::vector<double> xty(static_cast<std::size_t>(p), 0.0);
  for (index_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    const double yr = y[static_cast<std::size_t>(r)];
    for (index_t a = 0; a < p; ++a) {
      double& acc = xty[static_cast<std::size_t>(a)];
#if defined(__FMA__) || defined(__AVX512F__)
      acc = std::fma(row[static_cast<std::size_t>(a)], yr, acc);
#else
      acc += row[static_cast<std::size_t>(a)] * yr;
#endif
    }
  }
  OlsFit fit;
  const auto fwd = linalg::forward_substitute(xtx, xty);
  fit.beta = linalg::backward_substitute(xtx, fwd);

  for (index_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    double pred = 0.0;
    for (index_t a = 0; a < p; ++a) {
      pred += row[static_cast<std::size_t>(a)] * fit.beta[static_cast<std::size_t>(a)];
    }
    const double resid = y[static_cast<std::size_t>(r)] - pred;
    fit.sse += resid * resid;
  }
  const index_t dof = n - p;
  fit.sigma = std::sqrt(fit.sse / static_cast<double>(dof > 0 ? dof : 1));
  return fit;
}

linalg::Matrix normal_factor(const linalg::Matrix& x) {
  const index_t n = x.rows();
  const index_t p = x.cols();
  EXACLIM_CHECK(n > p, "need more observations than parameters");
  linalg::Matrix xtx(p, p);
  for (index_t r = 0; r < n; ++r) {
    const auto row = x.row(r);
    for (index_t a = 0; a < p; ++a) {
      for (index_t b = a; b < p; ++b) {
        xtx(a, b) += row[static_cast<std::size_t>(a)] * row[static_cast<std::size_t>(b)];
      }
    }
  }
  for (index_t a = 0; a < p; ++a) {
    for (index_t b = 0; b < a; ++b) xtx(a, b) = xtx(b, a);
  }
  // Tiny ridge for near-collinear designs (e.g. constant forcing).
  double trace = 0.0;
  for (index_t a = 0; a < p; ++a) trace += xtx(a, a);
  linalg::add_diagonal_jitter(xtx, 1e-12 * (trace > 0.0 ? trace : 1.0));
  linalg::cholesky_dense(xtx);
  return xtx;
}

}  // namespace exaclim::stats
