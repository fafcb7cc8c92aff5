#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "kernels/kernels.hpp"

namespace haan::tensor {

Tensor linear_input_major(const Tensor& x, const Tensor& wt,
                          std::span<const float> bias) {
  HAAN_EXPECTS(x.shape().rank() == 2 && wt.shape().rank() == 2);
  const std::size_t n = x.shape().dim(0);
  const std::size_t in = x.shape().dim(1);
  const std::size_t out = wt.shape().dim(1);
  HAAN_EXPECTS(wt.shape().dim(0) == in);
  HAAN_EXPECTS(bias.empty() || bias.size() == out);
  Tensor y(Shape{n, out});
  kernels::active().linear(x.data().data(), n, in, wt.data().data(), out,
                           kernels::data_or_null(bias), y.data().data());
  return y;
}

Tensor linear(const Tensor& x, const Tensor& w, std::span<const float> bias) {
  HAAN_EXPECTS(x.shape().rank() == 2 && w.shape().rank() == 2);
  const std::size_t n = x.shape().dim(0);
  const std::size_t in = x.shape().dim(1);
  const std::size_t out = w.shape().dim(0);
  HAAN_EXPECTS(w.shape().dim(1) == in);
  HAAN_EXPECTS(bias.empty() || bias.size() == out);
  // W^T into per-thread scratch, the layout the kernel reads.
  thread_local std::vector<float> wt;
  wt.resize(in * out);
  const float* w_data = w.data().data();
  for (std::size_t o = 0; o < out; ++o) {
    for (std::size_t p = 0; p < in; ++p) wt[p * out + o] = w_data[o * in + p];
  }
  Tensor y(Shape{n, out});
  kernels::active().linear(x.data().data(), n, in, wt.data(), out,
                           kernels::data_or_null(bias), y.data().data());
  return y;
}

void softmax(std::span<float> row) {
  HAAN_EXPECTS(!row.empty());
  kernels::active().softmax(row.data(), row.size());
}

void softmax_rows(Tensor& t) {
  HAAN_EXPECTS(t.shape().rank() == 2);
  const std::size_t rows = t.shape().dim(0);
  for (std::size_t r = 0; r < rows; ++r) softmax(t.row(r));
}

void gelu_inplace(Tensor& t) {
  kernels::active().gelu(t.data().data(), t.data().size());
}

void silu_inplace(Tensor& t) {
  kernels::active().silu(t.data().data(), t.data().size());
}

void add_inplace(Tensor& a, const Tensor& b) {
  HAAN_EXPECTS(a.shape() == b.shape());
  const auto bd = b.data();
  auto ad = a.data();
  for (std::size_t i = 0; i < ad.size(); ++i) ad[i] += bd[i];
}

void scale_inplace(Tensor& t, float s) {
  for (float& v : t.data()) v *= s;
}

Tensor hadamard(const Tensor& a, const Tensor& b) {
  HAAN_EXPECTS(a.shape() == b.shape());
  Tensor c(a.shape());
  const auto ad = a.data();
  const auto bd = b.data();
  auto cd = c.data();
  for (std::size_t i = 0; i < cd.size(); ++i) cd[i] = ad[i] * bd[i];
  return c;
}

std::vector<float> mean_rows(const Tensor& t) {
  HAAN_EXPECTS(t.shape().rank() == 2);
  const std::size_t rows = t.shape().dim(0);
  const std::size_t cols = t.shape().dim(1);
  std::vector<float> mean(cols, 0.0f);
  for (std::size_t r = 0; r < rows; ++r) {
    const auto row = t.row(r);
    for (std::size_t c = 0; c < cols; ++c) mean[c] += row[c];
  }
  for (float& v : mean) v /= static_cast<float>(rows);
  return mean;
}

std::size_t argmax(std::span<const float> values) {
  HAAN_EXPECTS(!values.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

double dot(std::span<const float> a, std::span<const float> b) {
  HAAN_EXPECTS(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc += static_cast<double>(a[i]) * static_cast<double>(b[i]);
  }
  return acc;
}

double l2_norm(std::span<const float> values) {
  double acc = 0.0;
  for (const float v : values) acc += static_cast<double>(v) * v;
  return std::sqrt(acc);
}

void l2_normalize(std::span<float> values) {
  const double norm = l2_norm(values);
  if (norm == 0.0) return;
  for (float& v : values) v = static_cast<float>(v / norm);
}

double max_abs_error(std::span<const float> a, std::span<const float> b) {
  HAAN_EXPECTS(a.size() == b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) - b[i]));
  }
  return worst;
}

double rms_error(std::span<const float> a, std::span<const float> b) {
  HAAN_EXPECTS(a.size() == b.size());
  HAAN_EXPECTS(!a.empty());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(a.size()));
}

}  // namespace haan::tensor
