#include "tensor/tensor.hpp"

#include <algorithm>
#include <sstream>

#include "common/assert.hpp"

namespace haan::tensor {

Shape::Shape(std::initializer_list<std::size_t> dims) : dims_(dims) {
  HAAN_EXPECTS(dims_.size() <= 4);
  for (const std::size_t d : dims_) HAAN_EXPECTS(d > 0);
}

Shape::Shape(std::vector<std::size_t> dims) : dims_(std::move(dims)) {
  HAAN_EXPECTS(dims_.size() <= 4);
  for (const std::size_t d : dims_) HAAN_EXPECTS(d > 0);
}

std::size_t Shape::dim(std::size_t axis) const {
  HAAN_EXPECTS(axis < dims_.size());
  return dims_[axis];
}

std::size_t Shape::numel() const {
  std::size_t n = 1;
  for (const std::size_t d : dims_) n *= d;
  return dims_.empty() ? 0 : n;
}

std::string Shape::to_string() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    if (i) out << ", ";
    out << dims_[i];
  }
  out << "]";
  return out.str();
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(shape_.numel(), 0.0f) {}

Tensor::Tensor(Shape shape, std::span<const float> data)
    : shape_(std::move(shape)),
      data_(data.begin(), data.end()) {
  HAAN_EXPECTS(data_.size() == shape_.numel());
}

Tensor Tensor::randn(Shape shape, common::Rng& rng, double mean, double stddev) {
  Tensor t(std::move(shape));
  rng.fill_gaussian(t.data_, mean, stddev);
  return t;
}

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  for (auto& v : t.data_) v = value;
  return t;
}

float& Tensor::at(std::size_t index) {
  HAAN_EXPECTS(index < data_.size());
  return data_[index];
}

float Tensor::at(std::size_t index) const {
  HAAN_EXPECTS(index < data_.size());
  return data_[index];
}

float& Tensor::at(std::size_t row, std::size_t col) {
  HAAN_EXPECTS(shape_.rank() == 2);
  HAAN_EXPECTS(row < shape_.dim(0) && col < shape_.dim(1));
  return data_[row * shape_.dim(1) + col];
}

float Tensor::at(std::size_t row, std::size_t col) const {
  HAAN_EXPECTS(shape_.rank() == 2);
  HAAN_EXPECTS(row < shape_.dim(0) && col < shape_.dim(1));
  return data_[row * shape_.dim(1) + col];
}

float& Tensor::at(std::size_t i, std::size_t j, std::size_t k) {
  HAAN_EXPECTS(shape_.rank() == 3);
  HAAN_EXPECTS(i < shape_.dim(0) && j < shape_.dim(1) && k < shape_.dim(2));
  return data_[(i * shape_.dim(1) + j) * shape_.dim(2) + k];
}

float Tensor::at(std::size_t i, std::size_t j, std::size_t k) const {
  HAAN_EXPECTS(shape_.rank() == 3);
  HAAN_EXPECTS(i < shape_.dim(0) && j < shape_.dim(1) && k < shape_.dim(2));
  return data_[(i * shape_.dim(1) + j) * shape_.dim(2) + k];
}

std::span<float> Tensor::row(std::size_t r) {
  HAAN_EXPECTS(shape_.rank() == 2);
  HAAN_EXPECTS(r < shape_.dim(0));
  return std::span<float>(data_).subspan(r * shape_.dim(1), shape_.dim(1));
}

std::span<const float> Tensor::row(std::size_t r) const {
  HAAN_EXPECTS(shape_.rank() == 2);
  HAAN_EXPECTS(r < shape_.dim(0));
  return std::span<const float>(data_).subspan(r * shape_.dim(1), shape_.dim(1));
}

std::span<float> Tensor::vector_at(std::size_t i, std::size_t j) {
  HAAN_EXPECTS(shape_.rank() == 3);
  HAAN_EXPECTS(i < shape_.dim(0) && j < shape_.dim(1));
  const std::size_t e = shape_.dim(2);
  return std::span<float>(data_).subspan((i * shape_.dim(1) + j) * e, e);
}

std::span<const float> Tensor::vector_at(std::size_t i, std::size_t j) const {
  HAAN_EXPECTS(shape_.rank() == 3);
  HAAN_EXPECTS(i < shape_.dim(0) && j < shape_.dim(1));
  const std::size_t e = shape_.dim(2);
  return std::span<const float>(data_).subspan((i * shape_.dim(1) + j) * e, e);
}

Tensor Tensor::reshaped(Shape shape) const {
  HAAN_EXPECTS(shape.numel() == numel());
  return Tensor(std::move(shape), std::span<const float>(data_));
}

std::string Tensor::to_string(std::size_t max_elements) const {
  std::ostringstream out;
  out << "Tensor" << shape_.to_string() << " {";
  const std::size_t n = std::min(max_elements, data_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (i) out << ", ";
    out << data_[i];
  }
  if (n < data_.size()) out << ", ...";
  out << "}";
  return out.str();
}

}  // namespace haan::tensor
