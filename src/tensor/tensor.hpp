// Row-major dense float tensor. Deliberately small: the LLM simulator needs
// contiguous 1-3D tensors, row views, and elementwise access — not a full
// n-d library. Shapes are validated eagerly so misuse fails at the call site.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace haan::tensor {

/// Tensor shape: up to 4 dimensions, stored smallest-major last (row-major).
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::size_t> dims);
  explicit Shape(std::vector<std::size_t> dims);

  std::size_t rank() const { return dims_.size(); }
  std::size_t dim(std::size_t axis) const;
  std::size_t numel() const;
  const std::vector<std::size_t>& dims() const { return dims_; }

  friend bool operator==(const Shape&, const Shape&) = default;

  std::string to_string() const;  ///< "[2, 4, 8]"

 private:
  std::vector<std::size_t> dims_;
};

/// Dense row-major float tensor with value semantics.
class Tensor {
 public:
  /// Empty (rank-0, zero elements).
  Tensor() = default;

  /// Zero-filled tensor of the given shape.
  explicit Tensor(Shape shape);

  /// Tensor copying existing data; data.size() must equal shape.numel().
  Tensor(Shape shape, std::span<const float> data);
  Tensor(Shape shape, std::initializer_list<float> data)
      : Tensor(std::move(shape),
               std::span<const float>(data.begin(), data.size())) {}

  Tensor(const Tensor&) = default;
  Tensor& operator=(const Tensor&) = default;
  Tensor(Tensor&&) noexcept = default;
  Tensor& operator=(Tensor&&) noexcept = default;
  ~Tensor() = default;

  /// Factory: i.i.d. N(mean, stddev^2) entries from `rng`.
  static Tensor randn(Shape shape, common::Rng& rng, double mean = 0.0,
                      double stddev = 1.0);

  /// Factory: every element = `value`.
  static Tensor full(Shape shape, float value);

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }

  /// Flat element access.
  float& at(std::size_t index);
  float at(std::size_t index) const;

  /// 2D access for matrices (rank must be 2).
  float& at(std::size_t row, std::size_t col);
  float at(std::size_t row, std::size_t col) const;

  /// 3D access (rank must be 3).
  float& at(std::size_t i, std::size_t j, std::size_t k);
  float at(std::size_t i, std::size_t j, std::size_t k) const;

  /// Mutable / const view of the full buffer.
  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  /// View of one row of a rank-2 tensor (length = cols).
  std::span<float> row(std::size_t r);
  std::span<const float> row(std::size_t r) const;

  /// View of the innermost vector at (i, j) of a rank-3 tensor.
  std::span<float> vector_at(std::size_t i, std::size_t j);
  std::span<const float> vector_at(std::size_t i, std::size_t j) const;

  /// Reshape to an equal-numel shape (no data movement).
  Tensor reshaped(Shape shape) const;

  std::string to_string(std::size_t max_elements = 16) const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace haan::tensor
