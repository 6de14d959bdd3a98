// Dense row-major matrix/vector containers.  These deliberately stay simple —
// Mako's performance story lives in the GEMM micro-kernels (gemm.hpp), not in
// the container.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace mako {

/// Dense row-major matrix over T.
template <typename T = double>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  T& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }

  T* row(std::size_t r) noexcept { return data_.data() + r * cols_; }
  const T* row(std::size_t r) const noexcept { return data_.data() + r * cols_; }

  void fill(T value) { data_.assign(data_.size(), value); }

  void resize(std::size_t rows, std::size_t cols, T fill = T{}) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, fill);
  }

  /// Identity matrix of dimension n.
  static Matrix identity(std::size_t n) {
    Matrix m(n, n, T{});
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  [[nodiscard]] Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
  }

  Matrix& operator+=(const Matrix& other) {
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& other) {
    assert(rows_ == other.rows_ && cols_ == other.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
    return *this;
  }
  Matrix& operator*=(T scale) {
    for (auto& v : data_) v *= scale;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T s) { return a *= s; }
  friend Matrix operator*(T s, Matrix a) { return a *= s; }

  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using MatrixD = Matrix<double>;
using MatrixF = Matrix<float>;

/// Dense vector over T (thin alias over std::vector with math helpers).
template <typename T = double>
using Vector = std::vector<T>;

using VectorD = std::vector<double>;

// --- Small helpers used across modules -------------------------------------

/// Frobenius norm.
double frobenius_norm(const MatrixD& m);

/// Max-abs elementwise difference between two equally sized matrices.
double max_abs_diff(const MatrixD& a, const MatrixD& b);

/// Root-mean-square elementwise difference (the paper's Table-2 metric).
double rmse(const MatrixD& a, const MatrixD& b);

/// RMSE over raw buffers.
double rmse(const double* a, const double* b, std::size_t n);

/// trace(A * B) for symmetric same-size matrices — the SCF energy contraction.
double trace_product(const MatrixD& a, const MatrixD& b);

}  // namespace mako
