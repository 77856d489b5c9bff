#include "linalg/solve.hpp"

#include "common/error.hpp"

namespace exaclim::linalg {

std::vector<double> sample_mvn(const Matrix& chol_factor, common::Rng& rng) {
  EXACLIM_CHECK(chol_factor.rows() == chol_factor.cols(),
                "Cholesky factor must be square");
  const index_t n = chol_factor.rows();
  std::vector<double> z(static_cast<std::size_t>(n));
  for (auto& v : z) v = rng.normal();
  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (index_t j = 0; j <= i; ++j) {
      acc += chol_factor(i, j) * z[static_cast<std::size_t>(j)];
    }
    x[static_cast<std::size_t>(i)] = acc;
  }
  return x;
}

void add_diagonal_jitter(Matrix& a, double eps) {
  EXACLIM_CHECK(a.rows() == a.cols(), "matrix must be square");
  for (index_t i = 0; i < a.rows(); ++i) a(i, i) += eps;
}

}  // namespace exaclim::linalg
