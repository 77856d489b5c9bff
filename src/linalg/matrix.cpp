#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"

namespace exaclim::linalg {

Matrix::Matrix(index_t rows, index_t cols, double fill)
    : rows_(rows), cols_(cols) {
  EXACLIM_CHECK(rows >= 0 && cols >= 0, "matrix dimensions must be >= 0");
  std::size_t bytes = 0;
  EXACLIM_CHECK(!__builtin_mul_overflow(static_cast<std::size_t>(rows),
                                        static_cast<std::size_t>(cols),
                                        &bytes) &&
                    !__builtin_mul_overflow(bytes, sizeof(double), &bytes) &&
                    bytes <= static_cast<std::size_t>(PTRDIFF_MAX),
                "matrix dimensions overflow the address space");
  data_.assign(bytes / sizeof(double), fill);
}

double Matrix::frobenius_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (index_t i = 0; i < rows_; ++i) {
    for (index_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Matrix Matrix::identity(index_t n) {
  Matrix m(n, n);
  for (index_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  EXACLIM_CHECK(a.cols() == b.rows(), "matmul dimension mismatch");
  Matrix c(a.rows(), b.cols());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (index_t j = 0; j < b.cols(); ++j) c(i, j) += aik * b(k, j);
    }
  }
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  EXACLIM_CHECK(a.cols() == b.cols(), "matmul_nt dimension mismatch");
  Matrix c(a.rows(), b.rows());
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (index_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      c(i, j) = acc;
    }
  }
  return c;
}

std::vector<double> matvec(const Matrix& a, std::span<const double> x) {
  EXACLIM_CHECK(a.cols() == static_cast<index_t>(x.size()),
                "matvec dimension mismatch");
  std::vector<double> y(static_cast<std::size_t>(a.rows()), 0.0);
  for (index_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    for (index_t j = 0; j < a.cols(); ++j) acc += a(i, j) * x[static_cast<std::size_t>(j)];
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

void cholesky_dense(Matrix& a) {
  EXACLIM_CHECK(a.rows() == a.cols(), "Cholesky requires a square matrix");
  const index_t n = a.rows();
  for (index_t k = 0; k < n; ++k) {
    double pivot = a(k, k);
    for (index_t j = 0; j < k; ++j) pivot -= a(k, j) * a(k, j);
    EXACLIM_NUMERIC_CHECK(pivot > 0.0,
                          "matrix is not positive definite (dense Cholesky)");
    const double lkk = std::sqrt(pivot);
    a(k, k) = lkk;
    for (index_t i = k + 1; i < n; ++i) {
      double acc = a(i, k);
      for (index_t j = 0; j < k; ++j) acc -= a(i, j) * a(k, j);
      a(i, k) = acc / lkk;
    }
  }
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = i + 1; j < n; ++j) a(i, j) = 0.0;
  }
}

std::vector<double> forward_substitute(const Matrix& l,
                                       std::span<const double> b) {
  EXACLIM_CHECK(l.rows() == l.cols(), "triangular solve requires square L");
  EXACLIM_CHECK(l.rows() == static_cast<index_t>(b.size()), "size mismatch");
  const index_t n = l.rows();
  std::vector<double> x(b.begin(), b.end());
  for (index_t i = 0; i < n; ++i) {
    double acc = x[static_cast<std::size_t>(i)];
    for (index_t j = 0; j < i; ++j) acc -= l(i, j) * x[static_cast<std::size_t>(j)];
    EXACLIM_NUMERIC_CHECK(l(i, i) != 0.0, "singular triangular factor");
    x[static_cast<std::size_t>(i)] = acc / l(i, i);
  }
  return x;
}

std::vector<double> backward_substitute(const Matrix& l,
                                        std::span<const double> b) {
  EXACLIM_CHECK(l.rows() == l.cols(), "triangular solve requires square L");
  EXACLIM_CHECK(l.rows() == static_cast<index_t>(b.size()), "size mismatch");
  const index_t n = l.rows();
  std::vector<double> x(b.begin(), b.end());
  for (index_t i = n - 1; i >= 0; --i) {
    double acc = x[static_cast<std::size_t>(i)];
    for (index_t j = i + 1; j < n; ++j) acc -= l(j, i) * x[static_cast<std::size_t>(j)];
    EXACLIM_NUMERIC_CHECK(l(i, i) != 0.0, "singular triangular factor");
    x[static_cast<std::size_t>(i)] = acc / l(i, i);
  }
  return x;
}

double cholesky_residual(const Matrix& a, const Matrix& l) {
  EXACLIM_CHECK(a.rows() == a.cols() && l.rows() == l.cols() &&
                    a.rows() == l.rows(),
                "dimension mismatch");
  const Matrix llt = matmul_nt(l, l);
  double num = 0.0;
  for (index_t i = 0; i < a.rows(); ++i) {
    for (index_t j = 0; j < a.cols(); ++j) {
      const double d = a(i, j) - llt(i, j);
      num += d * d;
    }
  }
  const double den = a.frobenius_norm();
  return den > 0.0 ? std::sqrt(num) / den : std::sqrt(num);
}

Matrix unpack_lower(std::span<const double> packed, index_t n) {
  Matrix a(n, n);
  EXACLIM_CHECK(packed.size() == static_cast<std::size_t>(n * (n + 1) / 2),
                "packed lower triangle must hold n(n+1)/2 values");
  for (index_t i = 0; i < n; ++i) {
    std::copy_n(packed.begin() + i * (i + 1) / 2, i + 1, a.row(i).begin());
  }
  return a;
}

}  // namespace exaclim::linalg
