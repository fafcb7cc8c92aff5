// AVX2 backend. This translation unit is compiled with -mavx2 -mfma -mf16c on
// x86 targets (see CMakeLists); the dispatcher verifies CPU support via
// __builtin_cpu_supports before handing out this table, so no code here runs
// on machines without the ISA.
//
// Reductions widen to double lanes (two accumulators per moment) and so
// reassociate relative to the scalar reference; elementwise kernels perform
// the same rounding steps as scalar and are bit-identical except where the
// header's tolerance contract says otherwise (FP16 NaN payloads).
#include "kernels/backends.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "kernels/expf_model.hpp"

namespace haan::kernels {
namespace {

double hsum_pd(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

/// Accumulates sum and sum-of-squares of the 8 floats in `v`.
void accumulate8(__m256 v, __m256d& sum0, __m256d& sum1, __m256d& sq0,
                 __m256d& sq1) {
  const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
  const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
  sum0 = _mm256_add_pd(sum0, lo);
  sum1 = _mm256_add_pd(sum1, hi);
  sq0 = _mm256_fmadd_pd(lo, lo, sq0);
  sq1 = _mm256_fmadd_pd(hi, hi, sq1);
}

SumStats stats_avx2(const float* z, std::size_t n) {
  __m256d sum0 = _mm256_setzero_pd(), sum1 = _mm256_setzero_pd();
  __m256d sq0 = _mm256_setzero_pd(), sq1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    accumulate8(_mm256_loadu_ps(z + i), sum0, sum1, sq0, sq1);
  }
  SumStats out;
  out.sum = hsum_pd(_mm256_add_pd(sum0, sum1));
  out.sum_sq = hsum_pd(_mm256_add_pd(sq0, sq1));
  for (; i < n; ++i) {
    const float v = z[i];
    out.sum += v;
    out.sum_sq += static_cast<double>(v) * v;
  }
  return out;
}

double centered_sum_sq_avx2(const float* z, std::size_t n, double mean) {
  const __m256d mean_v = _mm256_set1_pd(mean);
  __m256d acc0 = _mm256_setzero_pd(), acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(z + i);
    const __m256d lo =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(v)), mean_v);
    const __m256d hi =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)), mean_v);
    acc0 = _mm256_fmadd_pd(lo, lo, acc0);
    acc1 = _mm256_fmadd_pd(hi, hi, acc1);
  }
  double acc = hsum_pd(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = z[i] - mean;
    acc += d * d;
  }
  return acc;
}

void residual_add_avx2(float* h, const float* residual, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sum =
        _mm256_add_ps(_mm256_loadu_ps(h + i), _mm256_loadu_ps(residual + i));
    _mm256_storeu_ps(h + i, sum);
  }
  for (; i < n; ++i) h[i] += residual[i];
}

void residual_add_copy_avx2(float* h, const float* residual, float* dst,
                            std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sum =
        _mm256_add_ps(_mm256_loadu_ps(h + i), _mm256_loadu_ps(residual + i));
    _mm256_storeu_ps(h + i, sum);
    _mm256_storeu_ps(dst + i, sum);
  }
  for (; i < n; ++i) {
    h[i] += residual[i];
    dst[i] = h[i];
  }
}

SumStats residual_add_stats_avx2(float* h, const float* residual,
                                 std::size_t n) {
  __m256d sum0 = _mm256_setzero_pd(), sum1 = _mm256_setzero_pd();
  __m256d sq0 = _mm256_setzero_pd(), sq1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 sum =
        _mm256_add_ps(_mm256_loadu_ps(h + i), _mm256_loadu_ps(residual + i));
    _mm256_storeu_ps(h + i, sum);
    accumulate8(sum, sum0, sum1, sq0, sq1);
  }
  SumStats out;
  out.sum = hsum_pd(_mm256_add_pd(sum0, sum1));
  out.sum_sq = hsum_pd(_mm256_add_pd(sq0, sq1));
  for (; i < n; ++i) {
    h[i] += residual[i];
    const float v = h[i];
    out.sum += v;
    out.sum_sq += static_cast<double>(v) * v;
  }
  return out;
}

void normalize_affine_avx2(const float* z, std::size_t n, double mean,
                           double isd, const float* alpha, const float* beta,
                           float* out) {
  const __m256d mean_v = _mm256_set1_pd(mean);
  const __m256d isd_v = _mm256_set1_pd(isd);
  // alpha == nullptr multiplies by 1.0f, which is exact for every value; a
  // missing beta must genuinely skip the add (0.0f + -0.0f would flip signs).
  const __m256 ones = _mm256_set1_ps(1.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 zv = _mm256_loadu_ps(z + i);
    const __m256d lo = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(zv)), mean_v),
        isd_v);
    const __m256d hi = _mm256_mul_pd(
        _mm256_sub_pd(_mm256_cvtps_pd(_mm256_extractf128_ps(zv, 1)), mean_v),
        isd_v);
    __m256 v = _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo));
    const __m256 a = alpha != nullptr ? _mm256_loadu_ps(alpha + i) : ones;
    v = _mm256_mul_ps(v, a);
    if (beta != nullptr) v = _mm256_add_ps(v, _mm256_loadu_ps(beta + i));
    _mm256_storeu_ps(out + i, v);
  }
  for (; i < n; ++i) {
    float v = static_cast<float>((z[i] - mean) * isd);
    if (alpha != nullptr) v *= alpha[i];
    if (beta != nullptr) v += beta[i];
    out[i] = v;
  }
}

void quantize_int8_avx2(float* values, std::size_t n, float scale) {
  const __m256 scale_v = _mm256_set1_ps(scale);
  const __m256 lo_v = _mm256_set1_ps(-128.0f);
  const __m256 hi_v = _mm256_set1_ps(127.0f);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(values + i);
    const __m256 q = _mm256_round_ps(_mm256_div_ps(v, scale_v),
                                     _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC);
    // Keep q as the second operand so min/max propagate NaN like std::clamp.
    const __m256 clamped = _mm256_min_ps(hi_v, _mm256_max_ps(lo_v, q));
    _mm256_storeu_ps(values + i, _mm256_mul_ps(clamped, scale_v));
  }
  for (; i < n; ++i) {
    values[i] =
        numerics::quantize_dequantize(values[i], numerics::NumericFormat::kINT8,
                                      scale);
  }
}

void quantize_fp16_avx2(float* values, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i half =
        _mm256_cvtps_ph(_mm256_loadu_ps(values + i), _MM_FROUND_TO_NEAREST_INT);
    _mm256_storeu_ps(values + i, _mm256_cvtph_ps(half));
  }
  for (; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(
        values[i], numerics::NumericFormat::kFP16, 1.0f);
  }
}

void quantize_bf16_avx2(float* values, std::size_t n) {
  // Integer replica of BFloat16::from_float/to_float: round-to-nearest-even
  // on the truncated 16 bits, quiet-NaN preservation. Bit-exact vs scalar.
  const __m256i inf_bits = _mm256_set1_epi32(0x7F800000);
  const __m256i abs_mask = _mm256_set1_epi32(0x7FFFFFFF);
  const __m256i round_base = _mm256_set1_epi32(0x7FFF);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i quiet_bit = _mm256_set1_epi32(0x40);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i bits =
        _mm256_castps_si256(_mm256_loadu_ps(values + i));
    const __m256i abs = _mm256_and_si256(bits, abs_mask);
    const __m256i is_nan = _mm256_cmpgt_epi32(abs, inf_bits);
    const __m256i top = _mm256_srli_epi32(bits, 16);
    const __m256i nan_res =
        _mm256_slli_epi32(_mm256_or_si256(top, quiet_bit), 16);
    const __m256i lsb = _mm256_and_si256(top, one);
    const __m256i rounded =
        _mm256_add_epi32(bits, _mm256_add_epi32(round_base, lsb));
    const __m256i rne_res =
        _mm256_slli_epi32(_mm256_srli_epi32(rounded, 16), 16);
    const __m256i res = _mm256_blendv_epi8(rne_res, nan_res, is_nan);
    _mm256_storeu_ps(values + i, _mm256_castsi256_ps(res));
  }
  for (; i < n; ++i) {
    values[i] = numerics::quantize_dequantize(
        values[i], numerics::NumericFormat::kBF16, 1.0f);
  }
}

void quantize_dequantize_avx2(float* values, std::size_t n,
                              numerics::NumericFormat format, float scale) {
  switch (format) {
    case numerics::NumericFormat::kFP32:
      return;
    case numerics::NumericFormat::kFP16:
      quantize_fp16_avx2(values, n);
      return;
    case numerics::NumericFormat::kBF16:
      quantize_bf16_avx2(values, n);
      return;
    case numerics::NumericFormat::kINT8:
      quantize_int8_avx2(values, n, scale);
      return;
  }
}

// Row-block kernels: loop the per-row bodies above inside this TU, so every
// row runs the same vector/tail split as the per-row entry points (bit-
// identical per backend) with no per-row dispatch.

void stats_rows_avx2(const float* x, std::size_t rows, std::size_t stride,
                     std::size_t n, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = stats_avx2(x + r * stride, n);
  }
}

void centered_sum_sq_rows_avx2(const float* x, std::size_t rows,
                               std::size_t stride, std::size_t n,
                               const double* mean, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = centered_sum_sq_avx2(x + r * stride, n, mean[r]);
  }
}

void residual_add_stats_rows_avx2(float* h, const float* residual,
                                  std::size_t rows, std::size_t d,
                                  std::size_t nstats, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* hr = h + r * d;
    const float* rr = residual + r * d;
    out[r] = residual_add_stats_avx2(hr, rr, nstats);
    residual_add_avx2(hr + nstats, rr + nstats, d - nstats);
  }
}

constexpr float kSaturation = 65504.0f;  // FP16 max, the widest I/O format

/// NaN -> 0, clamp to +/-65504; elementwise, matching the scalar backend's
/// std::isnan/std::clamp sequence bit for bit.
inline __m256 saturate_lanes(__m256 x) {
  const __m256 nan_mask = _mm256_cmp_ps(x, x, _CMP_UNORD_Q);
  const __m256 clamped = _mm256_min_ps(_mm256_set1_ps(kSaturation),
                                       _mm256_max_ps(_mm256_set1_ps(-kSaturation), x));
  return _mm256_blendv_ps(clamped, _mm256_setzero_ps(), nan_mask);
}

void saturate_avx2(float* v, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(v + i, saturate_lanes(_mm256_loadu_ps(v + i)));
  }
  for (; i < n; ++i) {
    const float x = v[i];
    v[i] = std::isnan(x) ? 0.0f : std::clamp(x, -kSaturation, kSaturation);
  }
}

void normalize_affine_rows_avx2(const float* x, std::size_t rows,
                                std::size_t d, const double* mean,
                                const double* isd, const float* alpha,
                                const float* beta, float* out, bool saturate) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* out_r = out + r * d;
    normalize_affine_avx2(x + r * d, d, mean[r], isd[r], alpha, beta, out_r);
    if (saturate) saturate_avx2(out_r, d);
  }
}

void quantize_dequantize_rows_avx2(float* x, std::size_t rows, std::size_t d,
                                   numerics::NumericFormat format,
                                   const float* scales) {
  for (std::size_t r = 0; r < rows; ++r) {
    quantize_dequantize_avx2(x + r * d, d, format, scales[r]);
  }
}

// --- Matmul kernels (exact-order contract, see kernels.hpp) ---------------
// Lanes run across outputs (linear) or keys (attention_scores); every lane is
// one output's own double accumulator stepping through the reduction index in
// ascending order, so the FMA chain rounds exactly like the scalar loop.

/// Output columns per linear block: two ymm of double accumulators per row.
constexpr std::size_t kLinearCols = 8;
/// Rows sharing one staged column panel per register tile.
constexpr std::size_t kLinearRows = 4;

/// All-ones in the first min(count, 8) of 8 int lanes (the AVX2 mask format).
inline __m256i lane_mask8(std::size_t count) {
  const __m256i lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const int active = static_cast<int>(std::min<std::size_t>(count, 8));
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(active), lanes);
}

/// In-register transpose of an 8x8 float block: on return r[p] holds column p
/// (element k = old r[k][p]).
inline void transpose8x8(__m256 r[8]) {
  __m256 t[8];
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
  }
  // s[4h + j], 128-bit lane L: column 4L + j of rows 4h..4h+3.
  __m256 s[8];
#pragma GCC unroll 2
  for (int h = 0; h < 2; ++h) {
    s[4 * h] = _mm256_shuffle_ps(t[4 * h], t[4 * h + 2], 0x44);
    s[4 * h + 1] = _mm256_shuffle_ps(t[4 * h], t[4 * h + 2], 0xEE);
    s[4 * h + 2] = _mm256_shuffle_ps(t[4 * h + 1], t[4 * h + 3], 0x44);
    s[4 * h + 3] = _mm256_shuffle_ps(t[4 * h + 1], t[4 * h + 3], 0xEE);
  }
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    r[j] = _mm256_permute2f128_ps(s[j], s[4 + j], 0x20);
    r[4 + j] = _mm256_permute2f128_ps(s[j], s[4 + j], 0x31);
  }
}

/// Stages weight rows [0, width) of the (width x in) block at `w` as a
/// transposed double panel, panel[p*8 + k] = w[k*in + p], one 8x8 block at a
/// time; the panel holds round_up(in, 8) columns. Rows past `width` and
/// columns past `in` stage +0.0 and never reach a stored output.
void stage_columns_avx2(const float* w, std::size_t in, std::size_t width,
                        double* panel) {
  for (std::size_t p0 = 0; p0 < in; p0 += 8) {
    const __m256i pm = lane_mask8(in - p0);
    __m256 r[8];
#pragma GCC unroll 8
    for (std::size_t k = 0; k < 8; ++k) {
      r[k] = k < width ? _mm256_maskload_ps(w + k * in + p0, pm)
                       : _mm256_setzero_ps();
    }
    transpose8x8(r);
    double* dst = panel + p0 * kLinearCols;
#pragma GCC unroll 8
    for (std::size_t p = 0; p < 8; ++p) {
      _mm256_storeu_pd(dst + p * kLinearCols,
                       _mm256_cvtps_pd(_mm256_castps256_ps128(r[p])));
      _mm256_storeu_pd(dst + p * kLinearCols + 4,
                       _mm256_cvtps_pd(_mm256_extractf128_ps(r[p], 1)));
    }
  }
}

/// R rows of x against one staged panel: y[r][0..width) for r < R.
template <std::size_t R>
void linear_tile_avx2(const float* x, std::size_t in, const double* panel,
                      __m256d bias_lo, __m256d bias_hi, __m256i m,
                      std::size_t out, float* y) {
  __m256d lo[R];
  __m256d hi[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    lo[r] = bias_lo;
    hi[r] = bias_hi;
  }
  for (std::size_t p = 0; p < in; ++p) {
    const __m256d w_lo = _mm256_loadu_pd(panel + p * kLinearCols);
    const __m256d w_hi = _mm256_loadu_pd(panel + p * kLinearCols + 4);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m256d xv = _mm256_set1_pd(static_cast<double>(x[r * in + p]));
      lo[r] = _mm256_fmadd_pd(xv, w_lo, lo[r]);
      hi[r] = _mm256_fmadd_pd(xv, w_hi, hi[r]);
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    const __m256 v = _mm256_set_m128(_mm256_cvtpd_ps(hi[r]),
                                     _mm256_cvtpd_ps(lo[r]));
    _mm256_maskstore_ps(y + r * out, m, v);
  }
}

void linear_avx2(const float* x, std::size_t n, std::size_t in, const float* w,
                 std::size_t out, const float* bias, float* y) {
  thread_local std::vector<double> panel;
  panel.resize((in + 7) / 8 * 8 * kLinearCols);
  for (std::size_t o0 = 0; o0 < out; o0 += kLinearCols) {
    const std::size_t width = std::min(kLinearCols, out - o0);
    const __m256i m = lane_mask8(width);
    stage_columns_avx2(w + o0 * in, in, width, panel.data());
    const __m256 b = bias == nullptr ? _mm256_setzero_ps()
                                     : _mm256_maskload_ps(bias + o0, m);
    const __m256d bias_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(b));
    const __m256d bias_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1));
    std::size_t i = 0;
    for (; i + kLinearRows <= n; i += kLinearRows) {
      linear_tile_avx2<kLinearRows>(x + i * in, in, panel.data(), bias_lo,
                                    bias_hi, m, out, y + i * out + o0);
    }
    for (; i < n; ++i) {
      linear_tile_avx2<1>(x + i * in, in, panel.data(), bias_lo, bias_hi, m,
                          out, y + i * out + o0);
    }
  }
}

void attention_scores_avx2(const float* q, std::size_t d_head, const float* kt,
                           std::size_t ld, std::size_t ctx, float scale,
                           float* scores) {
  constexpr std::size_t kLanes = 4;  // 4 x 4 keys in flight per query row
  const __m128 scale_v = _mm_set1_ps(scale);
  for (std::size_t j = 0; j < ctx; j += 4 * kLanes) {
    __m128i m[kLanes];
    __m256d acc[kLanes];
#pragma GCC unroll 8
    for (std::size_t s = 0; s < kLanes; ++s) {
      const std::size_t start = j + 4 * s;
      m[s] = _mm256_castsi256_si128(lane_mask8(start < ctx ? ctx - start : 0));
      acc[s] = _mm256_setzero_pd();
    }
    for (std::size_t c = 0; c < d_head; ++c) {
      const __m256d qc = _mm256_set1_pd(static_cast<double>(q[c]));
      const float* row = kt + c * ld + j;
#pragma GCC unroll 8
      for (std::size_t s = 0; s < kLanes; ++s) {
        const __m256d k = _mm256_cvtps_pd(_mm_maskload_ps(row + 4 * s, m[s]));
        acc[s] = _mm256_fmadd_pd(qc, k, acc[s]);
      }
    }
#pragma GCC unroll 8
    for (std::size_t s = 0; s < kLanes; ++s) {
      _mm_maskstore_ps(scores + j + 4 * s, m[s],
                       _mm_mul_ps(scale_v, _mm256_cvtpd_ps(acc[s])));
    }
  }
}

void attention_context_avx2(const float* p, std::size_t ctx, const float* v,
                            std::size_t ld, std::size_t d_head, float* out) {
  for (std::size_t c = 0; c < d_head; c += 8) {
    const __m256i m = lane_mask8(d_head - c);
    __m256 acc = _mm256_maskload_ps(out + c, m);
    for (std::size_t j = 0; j < ctx; ++j) {
      if (p[j] == 0.0f) continue;
      const __m256 vj = _mm256_maskload_ps(v + j * ld + c, m);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(p[j]), vj));
    }
    _mm256_maskstore_ps(out + c, m, acc);
  }
}

// --- Exp kernels -----------------------------------------------------------
// Four double lanes per expf_model4 call, each lane one step of the scalar
// expf model (kernels/expf_model.hpp), so every lane rounds exactly like
// std::exp. Lanes libm treats specially (|x| >= 88, inf, NaN) are patched
// with std::exp itself.

/// The expf model over 4 floats. Lanes with |x| >= 88 or NaN come out
/// meaningless; expf8 replaces them.
inline __m128 expf_model4(__m128 x) {
  const __m256d inv_ln2n = _mm256_set1_pd(detail::kInvLn2N);
  const __m256d shift = _mm256_set1_pd(detail::kShift);
  const __m256d xd = _mm256_cvtps_pd(x);
  const __m256d shifted = _mm256_add_pd(_mm256_mul_pd(inv_ln2n, xd), shift);
  const __m256d kd = _mm256_sub_pd(shifted, shift);
  const __m256d r = _mm256_fmsub_pd(inv_ln2n, xd, kd);
  // s = 2^(ki/32): tab[ki % 32] plus ki << 47.
  const __m256i ki = _mm256_castpd_si256(shifted);
  const __m256i t = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(detail::kExpTable),
      _mm256_and_si256(ki, _mm256_set1_epi64x(31)), 8);
  const __m256d s =
      _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64(ki, 47)));
  const __m256d p = _mm256_fmadd_pd(_mm256_set1_pd(detail::kC0), r,
                                    _mm256_set1_pd(detail::kC1));
  const __m256d q =
      _mm256_fmadd_pd(_mm256_set1_pd(detail::kC2), r, _mm256_set1_pd(1.0));
  const __m256d y = _mm256_mul_pd(_mm256_fmadd_pd(p, _mm256_mul_pd(r, r), q), s);
  return _mm256_cvtpd_ps(y);
}

/// e with its `lanes` (movemask bits) recomputed as std::exp(x): libm's own
/// special cases.
[[gnu::noinline]] __m256 expf_libm_lanes(__m256 x, __m256 e, int lanes) {
  alignas(32) float xs[8];
  alignas(32) float es[8];
  _mm256_store_ps(xs, x);
  _mm256_store_ps(es, e);
  for (int i = 0; i < 8; ++i) {
    if ((lanes >> i) & 1) es[i] = std::exp(xs[i]);
  }
  return _mm256_load_ps(es);
}

/// std::exp of the 8 floats in x, bit for bit; `valid` (lane_mask8 format)
/// marks the lanes that hold data (the others never reach libm).
inline __m256 expf8(__m256 x, __m256i valid) {
  const __m256 e = _mm256_set_m128(expf_model4(_mm256_extractf128_ps(x, 1)),
                                   expf_model4(_mm256_castps256_ps128(x)));
  const __m256i abs_bits = _mm256_and_si256(_mm256_castps_si256(x),
                                            _mm256_set1_epi32(0x7FFFFFFF));
  const __m256i special = _mm256_and_si256(
      valid, _mm256_cmpgt_epi32(
                 abs_bits, _mm256_set1_epi32(detail::kExpSpecialAbsBits - 1)));
  const int lanes = _mm256_movemask_ps(_mm256_castsi256_ps(special));
  return lanes == 0 ? e : expf_libm_lanes(x, e, lanes);
}

void exp_avx2(const float* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256i m = lane_mask8(n - i);
    _mm256_maskstore_ps(out + i, m, expf8(_mm256_maskload_ps(x + i, m), m));
  }
}

void softmax_avx2(float* row, std::size_t n) {
  // max_ps(v, acc) = v > acc ? v : acc, the operands of std::max(acc, v): a
  // NaN never replaces the running max. Across lanes only the value counts —
  // should +0 and -0 tie as the maximum, v - max_v differs at most in the
  // sign of a zero, and exp(+-0) = 1.
  const __m256 neg_inf =
      _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  __m256 acc = neg_inf;
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256i m = lane_mask8(n - i);
    const __m256 v = _mm256_blendv_ps(neg_inf, _mm256_maskload_ps(row + i, m),
                                      _mm256_castsi256_ps(m));
    acc = _mm256_max_ps(v, acc);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  float max_lane = lanes[0];
  for (int k = 1; k < 8; ++k) max_lane = std::max(max_lane, lanes[k]);
  const __m256 max_v = _mm256_set1_ps(max_lane);
  // The double sum stays one scalar chain in ascending order; the next
  // block's exp overlaps it.
  double sum = 0.0;
  alignas(32) float e[8];
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256i m = lane_mask8(n - i);
    const __m256 v =
        expf8(_mm256_sub_ps(_mm256_maskload_ps(row + i, m), max_v), m);
    _mm256_store_ps(e, v);
    _mm256_maskstore_ps(row + i, m, v);
    const std::size_t count = std::min<std::size_t>(8, n - i);
    for (std::size_t k = 0; k < count; ++k) sum += e[k];
  }
  HAAN_ASSERT(sum > 0.0);
  const __m256d sum_v = _mm256_set1_pd(sum);
  for (std::size_t i = 0; i < n; i += 4) {
    const __m128i m = _mm256_castsi256_si128(lane_mask8(n - i));
    const __m256d v = _mm256_cvtps_pd(_mm_maskload_ps(row + i, m));
    _mm_maskstore_ps(row + i, m, _mm256_cvtpd_ps(_mm256_div_pd(v, sum_v)));
  }
}

void silu_avx2(float* v, std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256i m = lane_mask8(n - i);
    const __m256 x = _mm256_maskload_ps(v + i, m);
    // -x flips the sign bit, like the scalar unary minus (NaN included).
    const __m256 e = expf8(_mm256_xor_ps(x, _mm256_set1_ps(-0.0f)), m);
    _mm256_maskstore_ps(v + i, m, _mm256_div_ps(x, _mm256_add_ps(one, e)));
  }
}

constexpr KernelTable kAvx2Table = {
    "avx2",
    stats_avx2,
    centered_sum_sq_avx2,
    residual_add_avx2,
    residual_add_copy_avx2,
    residual_add_stats_avx2,
    normalize_affine_avx2,
    quantize_dequantize_avx2,
    stats_rows_avx2,
    centered_sum_sq_rows_avx2,
    residual_add_stats_rows_avx2,
    normalize_affine_rows_avx2,
    quantize_dequantize_rows_avx2,
    linear_avx2,
    attention_scores_avx2,
    attention_context_avx2,
    exp_avx2,
    softmax_avx2,
    silu_avx2,
};

}  // namespace

namespace detail {
const KernelTable* avx2_table() { return &kAvx2Table; }
}  // namespace detail

}  // namespace haan::kernels

#else  // !x86

namespace haan::kernels::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace haan::kernels::detail

#endif
