// Dense double-precision matrix/vector types used across the statistics and
// emulator layers, plus reference (non-tiled) factorizations.
//
// Row-major storage. These are deliberately simple value types; the
// performance-critical path is the tiled mixed-precision solver in
// linalg/tile_matrix.hpp + runtime/tiled_cholesky_rt.hpp, not this class.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace exaclim::linalg {

/// Row-major dense matrix of doubles.
class Matrix {
 public:
  Matrix() = default;
  /// Throws InvalidArgument when rows * cols doubles overflow the address
  /// space (PTRDIFF_MAX bytes), before allocating.
  Matrix(index_t rows, index_t cols, double fill = 0.0);

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

  double& operator()(index_t i, index_t j) {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }
  double operator()(index_t i, index_t j) const {
    return data_[static_cast<std::size_t>(i * cols_ + j)];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  std::span<double> row(index_t i) {
    return {data_.data() + static_cast<std::size_t>(i * cols_),
            static_cast<std::size_t>(cols_)};
  }
  std::span<const double> row(index_t i) const {
    return {data_.data() + static_cast<std::size_t>(i * cols_),
            static_cast<std::size_t>(cols_)};
  }

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Returns the transpose.
  Matrix transposed() const;

  static Matrix identity(index_t n);

 private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B.
Matrix matmul(const Matrix& a, const Matrix& b);

/// C = A * B^T.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// y = A * x.
std::vector<double> matvec(const Matrix& a, std::span<const double> x);

/// In-place dense lower Cholesky: A -> L with A = L L^T; upper triangle is
/// zeroed. Throws NumericalError if a pivot is non-positive.
void cholesky_dense(Matrix& a);

/// Solves L x = b (forward substitution, lower-triangular L).
std::vector<double> forward_substitute(const Matrix& l, std::span<const double> b);

/// Solves L^T x = b (backward substitution with the transpose of lower L).
std::vector<double> backward_substitute(const Matrix& l, std::span<const double> b);

/// ||A - L L^T||_F / ||A||_F where L is lower-triangular.
double cholesky_residual(const Matrix& a, const Matrix& l);

/// The n x n lower-triangular matrix whose rows 0..n-1 are `packed`, row i
/// holding its i + 1 lower entries (the PackedStorage::F64 layout of a
/// trained factor and of a model file's factor section); the strict upper
/// triangle is zero.
Matrix unpack_lower(std::span<const double> packed, index_t n);

}  // namespace exaclim::linalg
