// Tensor operations for the transformer simulator: linear, row softmax,
// activations, elementwise arithmetic, reductions. Reference-grade float
// implementations, except `linear`, `softmax` and `silu_inplace`, which run
// the kernel layer's vectorized entries (bit-identical on every backend).
#pragma once

#include <span>

#include "tensor/tensor.hpp"

namespace haan::tensor {

/// y = x * W^T + b with the weight stored input-major: x is (n x in), wt is
/// W^T, (in x out) row-major, b has length out. This is how the model stores
/// every projection. Runs the active backend's exact-order kernel
/// (KernelTable::linear), so the result is bit-identical on every backend and
/// for any row count.
Tensor linear_input_major(const Tensor& x, const Tensor& wt,
                          std::span<const float> bias);

/// y = x * W^T + b for a row-major W, (out x in): transposes W into
/// per-thread scratch, then runs linear_input_major's kernel, so the result
/// equals it bit for bit. The transpose costs as much memory traffic as a
/// one-row product; hot paths store W^T once instead.
Tensor linear(const Tensor& x, const Tensor& w, std::span<const float> bias);

/// In-place numerically stable softmax of one row: v = exp(v - max) in float,
/// summed in double in ascending order, then v = (float)(v / sum). Attention
/// applies it to each query row's causal prefix of scores. Runs the active
/// backend's KernelTable::softmax; the row must not be empty.
void softmax(std::span<float> row);

/// In-place numerically stable softmax over the last axis of a rank-2 tensor.
void softmax_rows(Tensor& t);

/// Elementwise GELU (tanh approximation, as used by GPT-2 / OPT), computed as
/// inner = 0.7978845608028654f * (v + 0.044715f * v * v * v), then
/// v = 0.5f * v * (1.0f + std::tanh(inner)), in float, by the active
/// backend's KernelTable::gelu. The SIMD tables model glibc's tanhf lane by
/// lane and give the same bits.
void gelu_inplace(Tensor& t);

/// Elementwise SiLU (x * sigmoid(x), as used by LLaMA), computed as
/// v / (1.0f + std::exp(-v)) in float by the active backend's
/// KernelTable::silu.
void silu_inplace(Tensor& t);

/// a += b (shapes must match).
void add_inplace(Tensor& a, const Tensor& b);

/// t *= s.
void scale_inplace(Tensor& t, float s);

/// Elementwise product into a new tensor.
Tensor hadamard(const Tensor& a, const Tensor& b);

/// Mean over rows of a rank-2 tensor -> vector of length cols.
std::vector<float> mean_rows(const Tensor& t);

/// Index of the maximum element of a span (first on ties).
std::size_t argmax(std::span<const float> values);

/// Dot product of equal-length spans.
double dot(std::span<const float> a, std::span<const float> b);

/// L2 norm of a span.
double l2_norm(std::span<const float> values);

/// Normalizes a span to unit L2 norm in place; leaves zero vectors untouched.
void l2_normalize(std::span<float> values);

/// Max |a[i] - b[i]| over equal-length spans.
double max_abs_error(std::span<const float> a, std::span<const float> b);

/// sqrt(mean((a-b)^2)) over equal-length spans.
double rms_error(std::span<const float> a, std::span<const float> b);

}  // namespace haan::tensor
