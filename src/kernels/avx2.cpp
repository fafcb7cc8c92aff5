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
#include <array>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "kernels/attention_rows.hpp"
#include "kernels/expf_model.hpp"
#include "kernels/tanhf_model.hpp"

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
// Lanes run across outputs (linear), keys or query rows (causal attention,
// below the exp kernels, whose softmax it runs); every lane is
// one output's own double accumulator stepping through the reduction index in
// ascending order, so the FMA chain rounds exactly like the scalar loop.

/// Output columns per linear block: two ymm of double accumulators per row.
constexpr std::size_t kLinearCols = 8;
/// Rows sharing one column block per register tile.
constexpr std::size_t kLinearRows = 4;
/// Calls with at most this many rows widen each float weight in registers as
/// they read it; larger calls first widen the column block into a double
/// panel that all their tiles share. Measured with this table on a 4-vCPU
/// AVX-512 host over the two perfbench models' shapes: direct reads lead
/// through 4 rows (3-4 GMAC/s at 1 row against the panel's 2-3), tie at 6-8
/// and trail from 10 rows.
constexpr std::size_t kLinearDirectRows = 4;

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

/// Widens the input-major weight columns [o0, o0 + 8) of every reduction
/// step, masked by m, into panel[p*8 + k] = wt[p*out + o0 + k]. Masked-off
/// columns stage +0.0 and never reach a stored output.
void stage_columns_avx2(const float* wt, std::size_t in, std::size_t out,
                        __m256i m, double* panel) {
  for (std::size_t p = 0; p < in; ++p) {
    const __m256 v = _mm256_maskload_ps(wt + p * out, m);
    _mm256_storeu_pd(panel + p * kLinearCols,
                     _mm256_cvtps_pd(_mm256_castps256_ps128(v)));
    _mm256_storeu_pd(panel + p * kLinearCols + 4,
                     _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1)));
  }
}

/// R rows of x against one 8-column block: y[r][0..width) for r < R. Direct
/// tiles read the float weights at wt (row stride `out`) and widen them per
/// step; panel tiles read the block stage_columns_avx2 widened.
template <std::size_t R, bool Direct>
void linear_tile_avx2(const float* x, std::size_t in, const float* wt,
                      const double* panel, __m256d bias_lo, __m256d bias_hi,
                      __m256i m, std::size_t out, float* y) {
  __m256d lo[R];
  __m256d hi[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    lo[r] = bias_lo;
    hi[r] = bias_hi;
  }
  for (std::size_t p = 0; p < in; ++p) {
    __m256d w_lo;
    __m256d w_hi;
    if constexpr (Direct) {
      const __m256 v = _mm256_maskload_ps(wt + p * out, m);
      w_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
      w_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    } else {
      w_lo = _mm256_loadu_pd(panel + p * kLinearCols);
      w_hi = _mm256_loadu_pd(panel + p * kLinearCols + 4);
    }
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

/// All n rows of x against one 8-column block, in tiles of kLinearRows rows
/// and one smaller remainder tile.
template <bool Direct>
void linear_rows_avx2(const float* x, std::size_t n, std::size_t in,
                      const float* wt, const double* panel, __m256d bias_lo,
                      __m256d bias_hi, __m256i m, std::size_t out, float* y) {
  static_assert(kLinearRows == 4, "remainder tiles cover 1-3 rows");
  std::size_t i = 0;
  for (; i + kLinearRows <= n; i += kLinearRows) {
    linear_tile_avx2<kLinearRows, Direct>(x + i * in, in, wt, panel, bias_lo,
                                          bias_hi, m, out, y + i * out);
  }
  x += i * in;
  y += i * out;
  switch (n - i) {
    case 3:
      linear_tile_avx2<3, Direct>(x, in, wt, panel, bias_lo, bias_hi, m, out,
                                  y);
      break;
    case 2:
      linear_tile_avx2<2, Direct>(x, in, wt, panel, bias_lo, bias_hi, m, out,
                                  y);
      break;
    case 1:
      linear_tile_avx2<1, Direct>(x, in, wt, panel, bias_lo, bias_hi, m, out,
                                  y);
      break;
    default:
      break;
  }
}

void linear_avx2(const float* x, std::size_t n, std::size_t in,
                 const float* wt, std::size_t out, const float* bias,
                 float* y) {
  thread_local std::vector<double> panel;
  const bool direct = n <= kLinearDirectRows;
  if (!direct) panel.resize(in * kLinearCols);
  for (std::size_t o0 = 0; o0 < out; o0 += kLinearCols) {
    const std::size_t width = std::min(kLinearCols, out - o0);
    const __m256i m = lane_mask8(width);
    const __m256 b = bias == nullptr ? _mm256_setzero_ps()
                                     : _mm256_maskload_ps(bias + o0, m);
    const __m256d bias_lo = _mm256_cvtps_pd(_mm256_castps256_ps128(b));
    const __m256d bias_hi = _mm256_cvtps_pd(_mm256_extractf128_ps(b, 1));
    if (direct) {
      linear_rows_avx2<true>(x, n, in, wt + o0, nullptr, bias_lo, bias_hi, m,
                             out, y + o0);
    } else {
      stage_columns_avx2(wt + o0, in, out, m, panel.data());
      linear_rows_avx2<false>(x, n, in, nullptr, panel.data(), bias_lo,
                              bias_hi, m, out, y + o0);
    }
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

// --- GELU --------------------------------------------------------------------
// The seed loop on 8 lanes through the tanhf model (kernels/tanhf_model.hpp),
// which covers every input: no lane goes to libm. Tail lanes load +0.0.

void gelu_avx2(float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 8) {
    const __m256i m = lane_mask8(n - i);
    _mm256_maskstore_ps(v + i, m,
                        detail::gelu_lanes(_mm256_maskload_ps(v + i, m)));
  }
}

// --- Causal attention (exact-order contract, see kernels.hpp) --------------
// The AVX-512 backend's two shapes at half the width: a tile of kTileRows
// query rows puts one row in each lane, every lane keeping its row's exact
// order, and a tile with few live rows (decode steps) runs the per-row
// kernels, lanes across keys or columns. The tiles' gain was measured with
// this table forced on an AVX-512 host (README), not on an AVX2-only CPU.

/// One query row's scores against keys stored transposed (kt is d_head x ld,
/// key j in column j): scores[j] = scale * (float)(Σ_c q[c] * kt[c*ld + j]),
/// lanes across keys.
void attention_scores_row(const float* q, std::size_t d_head, const float* kt,
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

/// One attention row's P·V: out[c] = +0.0f, then out[c] += p[j] * v[j*ld + c]
/// over j ascending, skipping p[j] == 0.0f; lanes across c.
void attention_context_row(const float* p, std::size_t ctx, const float* v,
                           std::size_t ld, std::size_t d_head, float* out) {
  for (std::size_t c = 0; c < d_head; c += 8) {
    const __m256i m = lane_mask8(d_head - c);
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t j = 0; j < ctx; ++j) {
      if (p[j] == 0.0f) continue;
      const __m256 vj = _mm256_maskload_ps(v + j * ld + c, m);
      acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_set1_ps(p[j]), vj));
    }
    _mm256_maskstore_ps(out + c, m, acc);
  }
}

/// Query rows per tile: one row per float lane.
constexpr std::size_t kTileRows = 8;
/// Tiles with fewer live rows run the per-row kernels. A tile costs about the
/// same whatever its live-row count; measured on an AVX-512 host running this
/// table (d_head 16 and 24, 1 to 176 keys), the per-row kernels are faster
/// below this count. Not yet measured on an AVX2-only CPU.
constexpr std::size_t kMinTileRows = 4;
/// Keys whose score chains run side by side in one tile step: 8 FMA chains.
constexpr std::size_t kScoreKeys = 4;

/// Per-thread scratch of causal_attention_avx2, grown on demand.
struct AttentionScratch {
  std::vector<double> kd;     // K^T in double: kd[c*keys + j]
  std::vector<double> qt;     // a tile's Q transposed: qt[c*8 + lane]
  std::vector<float> w;       // a tile's scores, then weights: w[j*8 + lane]
  std::vector<float> scores;  // one row's scores for the per-row kernels
};

/// The lanes of a tile whose first row sits at first_pos that attend key j:
/// lane i attends j when j <= first_pos + i.
inline __m256i causal_lanes(std::size_t j, std::size_t first_pos,
                            __m256i live) {
  return j <= first_pos
             ? live
             : _mm256_andnot_si256(lane_mask8(j - first_pos), live);
}

inline __m256 blend(__m256 a, __m256 b, __m256i mask) {
  return _mm256_blendv_ps(a, b, _mm256_castsi256_ps(mask));
}

/// Scores of keys [j, j + KB) for every lane of a tile against the double
/// K^T kd (row stride keys), folded into the lane-wise running max.
template <std::size_t KB>
inline void tile_scores(const double* qt, const double* kd, std::size_t keys,
                        std::size_t d_head, std::size_t j, __m256 scale,
                        std::size_t first_pos, __m256i live, float* w,
                        __m256& max_v) {
  __m256d lo[KB];
  __m256d hi[KB];
#pragma GCC unroll 4
  for (std::size_t b = 0; b < KB; ++b) {
    lo[b] = _mm256_setzero_pd();
    hi[b] = _mm256_setzero_pd();
  }
  for (std::size_t c = 0; c < d_head; ++c) {
    const __m256d q_lo = _mm256_loadu_pd(qt + c * kTileRows);
    const __m256d q_hi = _mm256_loadu_pd(qt + c * kTileRows + 4);
    const double* key = kd + c * keys + j;
#pragma GCC unroll 4
    for (std::size_t b = 0; b < KB; ++b) {
      const __m256d kc = _mm256_broadcast_sd(key + b);
      lo[b] = _mm256_fmadd_pd(q_lo, kc, lo[b]);
      hi[b] = _mm256_fmadd_pd(q_hi, kc, hi[b]);
    }
  }
  // max_ps(s, max) = s > max ? s : max, the operands of std::max(max, s):
  // a NaN score never replaces the running max, and ties keep the old one.
#pragma GCC unroll 4
  for (std::size_t b = 0; b < KB; ++b) {
    const __m256 s = _mm256_mul_ps(
        scale, _mm256_set_m128(_mm256_cvtpd_ps(hi[b]), _mm256_cvtpd_ps(lo[b])));
    _mm256_storeu_ps(w + (j + b) * kTileRows, s);
    max_v = blend(max_v, _mm256_max_ps(s, max_v),
                  causal_lanes(j + b, first_pos, live));
  }
}

/// (float)(e / sum) on 4 lanes with 0 <= e <= 1 <= sum (softmax weights),
/// bit for bit, given inv = 1 / sum. q = e * inv is within 2.5 double ulps of
/// the rounded quotient e / sum, so when every double within 8 ulps of q
/// rounds to the same float, that float is (float)(e / sum): float rounding
/// is monotone. Otherwise — about once in 10^7 lanes — the lane divides.
/// Dividing every lane instead cost 7% of prefill_offline throughput in the
/// AVX-512 table; not measured for this one.
inline __m128 softmax_weight4(__m256d e, __m256d sum, __m256d inv) {
  const __m256i bits = _mm256_castpd_si256(_mm256_mul_pd(e, inv));
  const __m256i step = _mm256_set1_epi64x(8);
  // q >= 0, so its bit pattern is monotone in q; q = 0 stays at 0 below.
  const __m128 below = _mm256_cvtpd_ps(_mm256_castsi256_pd(_mm256_andnot_si256(
      _mm256_cmpgt_epi64(step, bits), _mm256_sub_epi64(bits, step))));
  const __m128 above =
      _mm256_cvtpd_ps(_mm256_castsi256_pd(_mm256_add_epi64(bits, step)));
  const __m128i ambiguous = _mm_xor_si128(
      _mm_cmpeq_epi32(_mm_castps_si128(below), _mm_castps_si128(above)),
      _mm_set1_epi32(-1));
  if (_mm_testz_si128(ambiguous, ambiguous)) return below;
  return _mm_blendv_ps(below, _mm256_cvtpd_ps(_mm256_div_pd(e, sum)),
                       _mm_castsi128_ps(ambiguous));
}

/// P·V of output columns [0, NC) of a tile: acc[c] lane i is row i's column
/// c, each key added under its causal lanes whose weight is not 0.0f
/// (_CMP_NEQ_UQ keeps NaN weights, like the scalar `p == 0` skip).
template <std::size_t NC>
void tile_context(const float* w, std::size_t keys, const float* v,
                  std::size_t ld, std::size_t first_pos, __m256i live,
                  float* out) {
  __m256 acc[kTileRows];
#pragma GCC unroll 8
  for (std::size_t c = 0; c < kTileRows; ++c) acc[c] = _mm256_setzero_ps();
  for (std::size_t j = 0; j < keys; ++j) {
    const __m256 p = _mm256_loadu_ps(w + j * kTileRows);
    const __m256i m = _mm256_and_si256(
        causal_lanes(j, first_pos, live),
        _mm256_castps_si256(
            _mm256_cmp_ps(p, _mm256_setzero_ps(), _CMP_NEQ_UQ)));
    const float* vj = v + j * ld;
#pragma GCC unroll 8
    for (std::size_t c = 0; c < NC; ++c) {
      acc[c] = blend(acc[c],
                     _mm256_add_ps(acc[c], _mm256_mul_ps(
                                               p, _mm256_broadcast_ss(vj + c))),
                     m);
    }
  }
  transpose8x8(acc);  // acc[i] = row i's columns
  const __m256i cols = lane_mask8(NC);
  const int rows = _mm256_movemask_ps(_mm256_castsi256_ps(live));
  for (std::size_t i = 0; i < kTileRows; ++i) {
    if ((rows >> i) & 1) _mm256_maskstore_ps(out + i * ld, cols, acc[i]);
  }
}

template <std::size_t... N>
constexpr auto make_tile_context_table(std::index_sequence<N...>) {
  return std::array{&tile_context<N + 1>...};
}

/// tile_context<NC> for NC = 1..8, indexed by NC - 1.
constexpr auto kTileContext =
    make_tile_context_table(std::make_index_sequence<kTileRows>{});

/// One tile: `live` rows from q (row stride ld), the first at first_pos,
/// against the double K^T kd of the call's kd_keys keys (its row stride).
void attention_tile(const float* q, std::size_t live, const double* kd,
                    std::size_t kd_keys, const float* v, std::size_t ld,
                    std::size_t d_head, std::size_t first_pos, float scale,
                    AttentionScratch& ws, float* out) {
  const std::size_t keys = first_pos + live;
  const __m256i live_mask = lane_mask8(live);
  ws.w.resize(keys * kTileRows);
  float* w = ws.w.data();
  // Q transposed to lanes, in double: qt[c*8 + i] = q[i*ld + c].
  double* qt = ws.qt.data();
  for (std::size_t c0 = 0; c0 < d_head; c0 += 8) {
    const __m256i cols = lane_mask8(d_head - c0);
    __m256 r[8];
#pragma GCC unroll 8
    for (std::size_t i = 0; i < 8; ++i) {
      r[i] = i < live ? _mm256_maskload_ps(q + i * ld + c0, cols)
                      : _mm256_setzero_ps();
    }
    transpose8x8(r);
    const std::size_t width = std::min<std::size_t>(8, d_head - c0);
    for (std::size_t c = 0; c < width; ++c) {
      _mm256_storeu_pd(qt + (c0 + c) * kTileRows,
                       _mm256_cvtps_pd(_mm256_castps256_ps128(r[c])));
      _mm256_storeu_pd(qt + (c0 + c) * kTileRows + 4,
                       _mm256_cvtps_pd(_mm256_extractf128_ps(r[c], 1)));
    }
  }

  // Scores and the lane-wise max.
  const __m256 scale_v = _mm256_set1_ps(scale);
  __m256 max_v = _mm256_set1_ps(-std::numeric_limits<float>::infinity());
  std::size_t j = 0;
  for (; j + kScoreKeys <= keys; j += kScoreKeys) {
    tile_scores<kScoreKeys>(qt, kd, kd_keys, d_head, j, scale_v, first_pos,
                            live_mask, w, max_v);
  }
  for (; j < keys; ++j) {
    tile_scores<1>(qt, kd, kd_keys, d_head, j, scale_v, first_pos, live_mask,
                   w, max_v);
  }

  // e = exp(s - max) with the lanes past a row's context zeroed (so they
  // never reach libm), and one ascending double sum per lane. A zeroed lane
  // adds +0.0, which leaves a sum that started at +0.0 unchanged.
  __m256d sum_lo = _mm256_setzero_pd();
  __m256d sum_hi = _mm256_setzero_pd();
  for (j = 0; j < keys; ++j) {
    const __m256i m = causal_lanes(j, first_pos, live_mask);
    const __m256 x = _mm256_and_ps(
        _mm256_sub_ps(_mm256_loadu_ps(w + j * kTileRows), max_v),
        _mm256_castsi256_ps(m));
    const __m256 e = _mm256_and_ps(expf8(x, m), _mm256_castsi256_ps(m));
    _mm256_storeu_ps(w + j * kTileRows, e);
    sum_lo = _mm256_add_pd(sum_lo, _mm256_cvtps_pd(_mm256_castps256_ps128(e)));
    sum_hi = _mm256_add_pd(sum_hi, _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)));
  }
  const int positive =
      _mm256_movemask_pd(_mm256_cmp_pd(sum_lo, _mm256_setzero_pd(), _CMP_GT_OQ)) |
      (_mm256_movemask_pd(_mm256_cmp_pd(sum_hi, _mm256_setzero_pd(), _CMP_GT_OQ))
       << 4);
  const int live_bits = _mm256_movemask_ps(_mm256_castsi256_ps(live_mask));
  HAAN_ASSERT((positive & live_bits) == live_bits);

  // p = (float)(e / sum), lane-wise. Lanes past `live` divide by 1.
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256 sums = _mm256_castsi256_ps(live_mask);
  sum_lo = _mm256_blendv_pd(one, sum_lo,
                            _mm256_cvtps_pd(_mm256_castps256_ps128(sums)));
  sum_hi = _mm256_blendv_pd(one, sum_hi,
                            _mm256_cvtps_pd(_mm256_extractf128_ps(sums, 1)));
  const __m256d inv_lo = _mm256_div_pd(one, sum_lo);
  const __m256d inv_hi = _mm256_div_pd(one, sum_hi);
  for (j = 0; j < keys; ++j) {
    const __m256 e = _mm256_loadu_ps(w + j * kTileRows);
    const __m128 p_lo = softmax_weight4(
        _mm256_cvtps_pd(_mm256_castps256_ps128(e)), sum_lo, inv_lo);
    const __m128 p_hi = softmax_weight4(
        _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1)), sum_hi, inv_hi);
    _mm256_storeu_ps(w + j * kTileRows, _mm256_set_m128(p_hi, p_lo));
  }

  for (std::size_t c0 = 0; c0 < d_head; c0 += 8) {
    const std::size_t width = std::min<std::size_t>(8, d_head - c0);
    kTileContext[width - 1](w, keys, v + c0, ld, first_pos, live_mask,
                            out + c0);
  }
}

void causal_attention_avx2(const float* q, std::size_t rows, const float* kt,
                           std::size_t ldk, const float* v, std::size_t ld,
                           std::size_t d_head, std::size_t start_position,
                           float scale, float* out) {
  thread_local AttentionScratch ws;
  // The partial tile goes first, where its rows' contexts are shortest.
  const std::size_t head = rows % kTileRows;
  std::size_t i0 = 0;
  if (head != 0 && head < kMinTileRows) {
    detail::attention_rows<attention_scores_row, softmax_avx2,
                           attention_context_row>(
        q, head, kt, ldk, v, ld, d_head, start_position, scale, ws.scores,
        out);
    i0 = head;
  }
  if (i0 == rows) return;
  // K^T widened to double once per call, row c of kt read contiguously.
  const std::size_t keys = start_position + rows;
  ws.kd.resize(d_head * keys);
  for (std::size_t c = 0; c < d_head; ++c) {
    const float* src = kt + c * ldk;
    double* dst = ws.kd.data() + c * keys;
    std::size_t j = 0;
    for (; j + 4 <= keys; j += 4) {
      _mm256_storeu_pd(dst + j, _mm256_cvtps_pd(_mm_loadu_ps(src + j)));
    }
    for (; j < keys; ++j) dst[j] = src[j];
  }
  ws.qt.resize(d_head * kTileRows);
  while (i0 < rows) {
    const std::size_t live = i0 == 0 && head != 0 ? head : kTileRows;
    attention_tile(q + i0 * ld, live, ws.kd.data(), keys, v, ld, d_head,
                   start_position + i0, scale, ws, out + i0 * ld);
    i0 += live;
  }
}

constexpr KernelTable kAvx2Table = {
    "avx2",
    stats_avx2,
    centered_sum_sq_avx2,
    residual_add_avx2,
    residual_add_copy_avx2,
    normalize_affine_avx2,
    quantize_dequantize_avx2,
    stats_rows_avx2,
    centered_sum_sq_rows_avx2,
    residual_add_stats_rows_avx2,
    normalize_affine_rows_avx2,
    quantize_dequantize_rows_avx2,
    linear_avx2,
    causal_attention_avx2,
    exp_avx2,
    softmax_avx2,
    silu_avx2,
    gelu_avx2,
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
