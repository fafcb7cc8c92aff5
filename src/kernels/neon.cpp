// NEON (AArch64) backend. AdvSIMD is mandatory on AArch64, so no runtime
// feature check is needed; the dispatcher uses this table whenever the build
// targets aarch64 and scalar is not forced. Mirrors the AVX2 backend: double
// accumulators for reductions, elementwise kernels bit-identical to scalar
// under the header's tolerance contract.
#include "kernels/backends.hpp"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

namespace haan::kernels {
namespace {

/// Accumulates sum and sum-of-squares of the 4 floats in `v`.
void accumulate4(float32x4_t v, float64x2_t& sum0, float64x2_t& sum1,
                 float64x2_t& sq0, float64x2_t& sq1) {
  const float64x2_t lo = vcvt_f64_f32(vget_low_f32(v));
  const float64x2_t hi = vcvt_high_f64_f32(v);
  sum0 = vaddq_f64(sum0, lo);
  sum1 = vaddq_f64(sum1, hi);
  sq0 = vfmaq_f64(sq0, lo, lo);
  sq1 = vfmaq_f64(sq1, hi, hi);
}

SumStats stats_neon(const float* z, std::size_t n) {
  float64x2_t sum0 = vdupq_n_f64(0.0), sum1 = vdupq_n_f64(0.0);
  float64x2_t sq0 = vdupq_n_f64(0.0), sq1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    accumulate4(vld1q_f32(z + i), sum0, sum1, sq0, sq1);
  }
  SumStats out;
  out.sum = vaddvq_f64(vaddq_f64(sum0, sum1));
  out.sum_sq = vaddvq_f64(vaddq_f64(sq0, sq1));
  for (; i < n; ++i) {
    const float v = z[i];
    out.sum += v;
    out.sum_sq += static_cast<double>(v) * v;
  }
  return out;
}

double centered_sum_sq_neon(const float* z, std::size_t n, double mean) {
  const float64x2_t mean_v = vdupq_n_f64(mean);
  float64x2_t acc0 = vdupq_n_f64(0.0), acc1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(z + i);
    const float64x2_t lo = vsubq_f64(vcvt_f64_f32(vget_low_f32(v)), mean_v);
    const float64x2_t hi = vsubq_f64(vcvt_high_f64_f32(v), mean_v);
    acc0 = vfmaq_f64(acc0, lo, lo);
    acc1 = vfmaq_f64(acc1, hi, hi);
  }
  double acc = vaddvq_f64(vaddq_f64(acc0, acc1));
  for (; i < n; ++i) {
    const double d = z[i] - mean;
    acc += d * d;
  }
  return acc;
}

void residual_add_neon(float* h, const float* residual, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(h + i, vaddq_f32(vld1q_f32(h + i), vld1q_f32(residual + i)));
  }
  for (; i < n; ++i) h[i] += residual[i];
}

void residual_add_copy_neon(float* h, const float* residual, float* dst,
                            std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t sum =
        vaddq_f32(vld1q_f32(h + i), vld1q_f32(residual + i));
    vst1q_f32(h + i, sum);
    vst1q_f32(dst + i, sum);
  }
  for (; i < n; ++i) {
    h[i] += residual[i];
    dst[i] = h[i];
  }
}

SumStats residual_add_stats_neon(float* h, const float* residual,
                                 std::size_t n) {
  float64x2_t sum0 = vdupq_n_f64(0.0), sum1 = vdupq_n_f64(0.0);
  float64x2_t sq0 = vdupq_n_f64(0.0), sq1 = vdupq_n_f64(0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t sum =
        vaddq_f32(vld1q_f32(h + i), vld1q_f32(residual + i));
    vst1q_f32(h + i, sum);
    accumulate4(sum, sum0, sum1, sq0, sq1);
  }
  SumStats out;
  out.sum = vaddvq_f64(vaddq_f64(sum0, sum1));
  out.sum_sq = vaddvq_f64(vaddq_f64(sq0, sq1));
  for (; i < n; ++i) {
    h[i] += residual[i];
    const float v = h[i];
    out.sum += v;
    out.sum_sq += static_cast<double>(v) * v;
  }
  return out;
}

void normalize_affine_neon(const float* z, std::size_t n, double mean,
                           double isd, const float* alpha, const float* beta,
                           float* out) {
  const float64x2_t mean_v = vdupq_n_f64(mean);
  const float64x2_t isd_v = vdupq_n_f64(isd);
  const float32x4_t ones = vdupq_n_f32(1.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t zv = vld1q_f32(z + i);
    const float64x2_t lo =
        vmulq_f64(vsubq_f64(vcvt_f64_f32(vget_low_f32(zv)), mean_v), isd_v);
    const float64x2_t hi =
        vmulq_f64(vsubq_f64(vcvt_high_f64_f32(zv), mean_v), isd_v);
    float32x4_t v = vcombine_f32(vcvt_f32_f64(lo), vcvt_f32_f64(hi));
    const float32x4_t a = alpha != nullptr ? vld1q_f32(alpha + i) : ones;
    v = vmulq_f32(v, a);
    if (beta != nullptr) v = vaddq_f32(v, vld1q_f32(beta + i));
    vst1q_f32(out + i, v);
  }
  for (; i < n; ++i) {
    float v = static_cast<float>((z[i] - mean) * isd);
    if (alpha != nullptr) v *= alpha[i];
    if (beta != nullptr) v += beta[i];
    out[i] = v;
  }
}

void quantize_int8_neon(float* values, std::size_t n, float scale) {
  const float32x4_t scale_v = vdupq_n_f32(scale);
  const float32x4_t lo_v = vdupq_n_f32(-128.0f);
  const float32x4_t hi_v = vdupq_n_f32(127.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t v = vld1q_f32(values + i);
    const float32x4_t q = vrndnq_f32(vdivq_f32(v, scale_v));
    const float32x4_t clamped = vminq_f32(hi_v, vmaxq_f32(lo_v, q));
    vst1q_f32(values + i, vmulq_f32(clamped, scale_v));
  }
  for (; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(
        values[i], numerics::NumericFormat::kINT8, scale);
  }
}

void quantize_fp16_neon(float* values, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float16x4_t half = vcvt_f16_f32(vld1q_f32(values + i));
    vst1q_f32(values + i, vcvt_f32_f16(half));
  }
  for (; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(
        values[i], numerics::NumericFormat::kFP16, 1.0f);
  }
}

void quantize_bf16_neon(float* values, std::size_t n) {
  const uint32x4_t inf_bits = vdupq_n_u32(0x7F800000u);
  const uint32x4_t abs_mask = vdupq_n_u32(0x7FFFFFFFu);
  const uint32x4_t round_base = vdupq_n_u32(0x7FFFu);
  const uint32x4_t one = vdupq_n_u32(1u);
  const uint32x4_t quiet_bit = vdupq_n_u32(0x40u);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32x4_t bits = vreinterpretq_u32_f32(vld1q_f32(values + i));
    const uint32x4_t abs = vandq_u32(bits, abs_mask);
    const uint32x4_t is_nan = vcgtq_u32(abs, inf_bits);
    const uint32x4_t top = vshrq_n_u32(bits, 16);
    const uint32x4_t nan_res = vshlq_n_u32(vorrq_u32(top, quiet_bit), 16);
    const uint32x4_t lsb = vandq_u32(top, one);
    const uint32x4_t rounded = vaddq_u32(bits, vaddq_u32(round_base, lsb));
    const uint32x4_t rne_res = vshlq_n_u32(vshrq_n_u32(rounded, 16), 16);
    const uint32x4_t res = vbslq_u32(is_nan, nan_res, rne_res);
    vst1q_f32(values + i, vreinterpretq_f32_u32(res));
  }
  for (; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(
        values[i], numerics::NumericFormat::kBF16, 1.0f);
  }
}

void quantize_dequantize_neon(float* values, std::size_t n,
                              numerics::NumericFormat format, float scale) {
  switch (format) {
    case numerics::NumericFormat::kFP32:
      return;
    case numerics::NumericFormat::kFP16:
      quantize_fp16_neon(values, n);
      return;
    case numerics::NumericFormat::kBF16:
      quantize_bf16_neon(values, n);
      return;
    case numerics::NumericFormat::kINT8:
      quantize_int8_neon(values, n, scale);
      return;
  }
}

// Row-block kernels: loop the per-row bodies above inside this TU, so every
// row runs the same vector/tail split as the per-row entry points (bit-
// identical per backend) with no per-row dispatch.

void stats_rows_neon(const float* x, std::size_t rows, std::size_t stride,
                     std::size_t n, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = stats_neon(x + r * stride, n);
  }
}

void centered_sum_sq_rows_neon(const float* x, std::size_t rows,
                               std::size_t stride, std::size_t n,
                               const double* mean, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = centered_sum_sq_neon(x + r * stride, n, mean[r]);
  }
}

void residual_add_stats_rows_neon(float* h, const float* residual,
                                  std::size_t rows, std::size_t d,
                                  std::size_t nstats, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* hr = h + r * d;
    const float* rr = residual + r * d;
    out[r] = residual_add_stats_neon(hr, rr, nstats);
    residual_add_neon(hr + nstats, rr + nstats, d - nstats);
  }
}

/// NaN -> 0, clamp to +/-65504; elementwise, matching the scalar backend's
/// std::isnan/std::clamp sequence bit for bit (vmin/vmax propagate NaN).
void saturate_neon(float* v, std::size_t n) {
  constexpr float kSaturation = 65504.0f;
  const float32x4_t hi = vdupq_n_f32(kSaturation);
  const float32x4_t lo = vdupq_n_f32(-kSaturation);
  const float32x4_t zero = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t x = vld1q_f32(v + i);
    const uint32x4_t ordered = vceqq_f32(x, x);  // false lanes are NaN
    const float32x4_t clamped = vminq_f32(hi, vmaxq_f32(lo, x));
    vst1q_f32(v + i, vbslq_f32(ordered, clamped, zero));
  }
  for (; i < n; ++i) {
    const float x = v[i];
    v[i] = std::isnan(x) ? 0.0f : std::clamp(x, -kSaturation, kSaturation);
  }
}

void normalize_affine_rows_neon(const float* x, std::size_t rows, std::size_t d,
                                const double* mean, const double* isd,
                                const float* alpha, const float* beta,
                                float* out, bool saturate) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* out_r = out + r * d;
    normalize_affine_neon(x + r * d, d, mean[r], isd[r], alpha, beta, out_r);
    if (saturate) saturate_neon(out_r, d);
  }
}

void quantize_dequantize_rows_neon(float* x, std::size_t rows, std::size_t d,
                                   numerics::NumericFormat format,
                                   const float* scales) {
  for (std::size_t r = 0; r < rows; ++r) {
    quantize_dequantize_neon(x + r * d, d, format, scales[r]);
  }
}

constexpr KernelTable kNeonTable = {
    "neon",
    stats_neon,
    centered_sum_sq_neon,
    residual_add_neon,
    residual_add_copy_neon,
    normalize_affine_neon,
    quantize_dequantize_neon,
    stats_rows_neon,
    centered_sum_sq_rows_neon,
    residual_add_stats_rows_neon,
    normalize_affine_rows_neon,
    quantize_dequantize_rows_neon,
    // No NEON matmul kernel has been measured yet; the scalar seed loops
    // serve, bit-identical to every other backend by the exact-order contract.
    detail::linear_scalar,
    detail::causal_attention_scalar,
    // The expf model needs double-lane FMA and a 32-entry table lookup; no
    // NEON version has been written, so the scalar libm loops serve.
    detail::exp_scalar,
    detail::softmax_scalar,
    detail::silu_scalar,
    detail::gelu_scalar,
};

}  // namespace

namespace detail {
const KernelTable* neon_table() { return &kNeonTable; }
}  // namespace detail

}  // namespace haan::kernels

#else  // !aarch64

namespace haan::kernels::detail {
const KernelTable* neon_table() { return nullptr; }
}  // namespace haan::kernels::detail

#endif
