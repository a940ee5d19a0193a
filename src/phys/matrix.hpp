#pragma once
// Small dense matrix/vector helpers shared across tsvcod.
//
// The matrices in this project are tiny (N = number of TSVs in one array,
// or MNA node counts of a few hundred), so a straightforward row-major dense
// container beats any external dependency. Only the operations the library
// actually needs are provided.

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace tsvcod::phys {

template <typename T>
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  static DenseMatrix identity(std::size_t n) {
    DenseMatrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  T& at(std::size_t r, std::size_t c) {
    check(r, c);
    return (*this)(r, c);
  }
  const T& at(std::size_t r, std::size_t c) const {
    check(r, c);
    return (*this)(r, c);
  }

  std::vector<T>& data() { return data_; }
  const std::vector<T>& data() const { return data_; }

  DenseMatrix transposed() const {
    DenseMatrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
    return t;
  }

  friend DenseMatrix operator*(const DenseMatrix& a, const DenseMatrix& b) {
    if (a.cols_ != b.rows_) throw std::invalid_argument("matrix product: shape mismatch");
    DenseMatrix out(a.rows_, b.cols_);
    for (std::size_t i = 0; i < a.rows_; ++i) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const T aik = a(i, k);
        if (aik == T{}) continue;
        for (std::size_t j = 0; j < b.cols_; ++j) out(i, j) += aik * b(k, j);
      }
    }
    return out;
  }

  friend DenseMatrix operator+(DenseMatrix a, const DenseMatrix& b) {
    a.check_same_shape(b);
    for (std::size_t i = 0; i < a.data_.size(); ++i) a.data_[i] += b.data_[i];
    return a;
  }

  friend DenseMatrix operator-(DenseMatrix a, const DenseMatrix& b) {
    a.check_same_shape(b);
    for (std::size_t i = 0; i < a.data_.size(); ++i) a.data_[i] -= b.data_[i];
    return a;
  }

  friend DenseMatrix operator*(T s, DenseMatrix m) {
    for (auto& v : m.data_) v *= s;
    return m;
  }

  bool operator==(const DenseMatrix&) const = default;

 private:
  void check(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("DenseMatrix index");
  }
  void check_same_shape(const DenseMatrix& b) const {
    if (rows_ != b.rows_ || cols_ != b.cols_)
      throw std::invalid_argument("DenseMatrix: shape mismatch");
  }

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using Matrix = DenseMatrix<double>;

}  // namespace tsvcod::phys
