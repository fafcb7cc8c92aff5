// Portable scalar backend: the bit-exact reference every SIMD backend is
// tested against. The loop bodies reproduce the seed's `tensor::norm_ref`,
// `core::subsample`, `tensor::linear`, attention, softmax and SiLU arithmetic
// exactly — same accumulation order, same double intermediates, same float
// rounding points — so HAAN_FORCE_SCALAR=1 runs are bit-identical to the
// pre-kernel-layer implementation.
#include "kernels/backends.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace haan::kernels {
namespace {

SumStats stats_scalar(const float* z, std::size_t n) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const float v = z[i];
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  return {sum, sum_sq};
}

double centered_sum_sq_scalar(const float* z, std::size_t n, double mean) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = z[i] - mean;
    acc += d * d;
  }
  return acc;
}

void residual_add_scalar(float* h, const float* residual, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) h[i] += residual[i];
}

void residual_add_copy_scalar(float* h, const float* residual, float* dst,
                              std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h[i] += residual[i];
    dst[i] = h[i];
  }
}

SumStats residual_add_stats_scalar(float* h, const float* residual,
                                   std::size_t n) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    h[i] += residual[i];
    const float v = h[i];
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  return {sum, sum_sq};
}

void normalize_affine_scalar(const float* z, std::size_t n, double mean,
                             double isd, const float* alpha, const float* beta,
                             float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    float v = static_cast<float>((z[i] - mean) * isd);
    if (alpha != nullptr) v *= alpha[i];
    if (beta != nullptr) v += beta[i];
    out[i] = v;
  }
}

void quantize_dequantize_scalar(float* values, std::size_t n,
                                numerics::NumericFormat format, float scale) {
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(values[i], format, scale);
  }
}

// Row-block kernels: plain loops over the per-row bodies above, so each row
// rounds exactly like the per-row entry points.

void stats_rows_scalar(const float* x, std::size_t rows, std::size_t stride,
                       std::size_t n, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = stats_scalar(x + r * stride, n);
  }
}

void centered_sum_sq_rows_scalar(const float* x, std::size_t rows,
                                 std::size_t stride, std::size_t n,
                                 const double* mean, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = centered_sum_sq_scalar(x + r * stride, n, mean[r]);
  }
}

void residual_add_stats_rows_scalar(float* h, const float* residual,
                                    std::size_t rows, std::size_t d,
                                    std::size_t nstats, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* hr = h + r * d;
    const float* rr = residual + r * d;
    // Fused add+stats over the statistics prefix, plain add over the rest.
    // The float adds are elementwise, so the updated h and the prefix stats
    // round identically to a full-row add followed by a prefix stats pass.
    out[r] = residual_add_stats_scalar(hr, rr, nstats);
    residual_add_scalar(hr + nstats, rr + nstats, d - nstats);
  }
}

void normalize_affine_rows_scalar(const float* x, std::size_t rows,
                                  std::size_t d, const double* mean,
                                  const double* isd, const float* alpha,
                                  const float* beta, float* out, bool saturate) {
  constexpr float kSaturation = 65504.0f;  // FP16 max, the widest I/O format
  for (std::size_t r = 0; r < rows; ++r) {
    float* out_r = out + r * d;
    normalize_affine_scalar(x + r * d, d, mean[r], isd[r], alpha, beta, out_r);
    if (!saturate) continue;
    for (std::size_t i = 0; i < d; ++i) {
      const float v = out_r[i];
      out_r[i] = std::isnan(v) ? 0.0f : std::clamp(v, -kSaturation, kSaturation);
    }
  }
}

void quantize_dequantize_rows_scalar(float* x, std::size_t rows, std::size_t d,
                                     numerics::NumericFormat format,
                                     const float* scales) {
  for (std::size_t r = 0; r < rows; ++r) {
    quantize_dequantize_scalar(x + r * d, d, format, scales[r]);
  }
}

}  // namespace

namespace detail {

void linear_scalar(const float* x, std::size_t n, std::size_t in,
                   const float* w, std::size_t out, const float* bias,
                   float* y) {
  for (std::size_t i = 0; i < n; ++i) {
    const float* x_row = x + i * in;
    float* y_row = y + i * out;
    for (std::size_t o = 0; o < out; ++o) {
      const float* w_row = w + o * in;
      double acc = bias == nullptr ? 0.0 : bias[o];
      for (std::size_t p = 0; p < in; ++p) {
        acc += static_cast<double>(x_row[p]) * static_cast<double>(w_row[p]);
      }
      y_row[o] = static_cast<float>(acc);
    }
  }
}

void attention_scores_scalar(const float* q, std::size_t d_head,
                             const float* kt, std::size_t ld, std::size_t ctx,
                             float scale, float* scores) {
  for (std::size_t j = 0; j < ctx; ++j) {
    double acc = 0.0;
    for (std::size_t c = 0; c < d_head; ++c) {
      acc += static_cast<double>(q[c]) * static_cast<double>(kt[c * ld + j]);
    }
    scores[j] = scale * static_cast<float>(acc);
  }
}

void attention_context_scalar(const float* p, std::size_t ctx, const float* v,
                              std::size_t ld, std::size_t d_head, float* out) {
  for (std::size_t j = 0; j < ctx; ++j) {
    const float pj = p[j];
    if (pj == 0.0f) continue;
    const float* vj = v + j * ld;
    for (std::size_t c = 0; c < d_head; ++c) out[c] += pj * vj[c];
  }
}

void exp_scalar(const float* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::exp(x[i]);
}

void softmax_scalar(float* row, std::size_t n) {
  float max_v = -std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < n; ++i) max_v = std::max(max_v, row[i]);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    row[i] = std::exp(row[i] - max_v);
    sum += row[i];
  }
  HAAN_ASSERT(sum > 0.0);
  for (std::size_t i = 0; i < n; ++i) row[i] = static_cast<float>(row[i] / sum);
}

void silu_scalar(float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] = v[i] / (1.0f + std::exp(-v[i]));
}

}  // namespace detail

namespace {

constexpr KernelTable kScalarTable = {
    "scalar",
    stats_scalar,
    centered_sum_sq_scalar,
    residual_add_scalar,
    residual_add_copy_scalar,
    residual_add_stats_scalar,
    normalize_affine_scalar,
    quantize_dequantize_scalar,
    stats_rows_scalar,
    centered_sum_sq_rows_scalar,
    residual_add_stats_rows_scalar,
    normalize_affine_rows_scalar,
    quantize_dequantize_rows_scalar,
    detail::linear_scalar,
    detail::attention_scores_scalar,
    detail::attention_context_scalar,
    detail::exp_scalar,
    detail::softmax_scalar,
    detail::silu_scalar,
};

}  // namespace

const KernelTable& scalar_kernels() { return kScalarTable; }

}  // namespace haan::kernels
