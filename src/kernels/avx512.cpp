// AVX-512 backend. This translation unit is compiled with
// -mavx512f/dq/bw/vl (plus the AVX2 baseline flags) when the compiler
// supports them (see CMakeLists); the dispatcher verifies CPU support via
// __builtin_cpu_supports before handing out this table, so no code here runs
// on machines without the ISA. When the compiler cannot target AVX-512 the
// TU still compiles — to the null stubs at the bottom — and runtime dispatch
// falls back to AVX2.
//
// Lanes are 16-wide with masked tails: a prime or odd `d` is handled by one
// masked iteration instead of a scalar remainder loop, so the vector/tail
// split never changes the per-element arithmetic. Reductions widen to double
// lanes (two accumulators per moment, mirroring the AVX2 structure) and so
// reassociate relative to the scalar reference; elementwise kernels perform
// the same rounding steps as scalar and are bit-identical except where the
// header's tolerance contract says otherwise (FP16 NaN payloads).
#include "kernels/backends.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX512F__) && \
    defined(__AVX512DQ__) && defined(__AVX512BW__) && defined(__AVX512VL__)

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

/// Active-lane mask for a tail of `rem` elements, 1 <= rem <= 15.
inline __mmask16 tail_mask16(std::size_t rem) {
  return static_cast<__mmask16>((1u << rem) - 1u);
}

double hsum_pd512(__m512d v) {
  const __m256d q = _mm256_add_pd(_mm512_castpd512_pd256(v),
                                  _mm512_extractf64x4_pd(v, 1));
  const __m128d pair =
      _mm_add_pd(_mm256_castpd256_pd128(q), _mm256_extractf128_pd(q, 1));
  return _mm_cvtsd_f64(pair) + _mm_cvtsd_f64(_mm_unpackhi_pd(pair, pair));
}

inline __m512d cvt_lo_pd(__m512 v) {
  return _mm512_cvtps_pd(_mm512_castps512_ps256(v));
}

inline __m512d cvt_hi_pd(__m512 v) {
  return _mm512_cvtps_pd(_mm512_extractf32x8_ps(v, 1));
}

/// Accumulates sum and sum-of-squares of the 16 floats in `v`. Masked-out
/// tail lanes arrive as +0.0 from the maskz load and contribute exactly
/// nothing to either moment.
inline void accumulate16(__m512 v, __m512d& sum0, __m512d& sum1, __m512d& sq0,
                         __m512d& sq1) {
  const __m512d lo = cvt_lo_pd(v);
  const __m512d hi = cvt_hi_pd(v);
  sum0 = _mm512_add_pd(sum0, lo);
  sum1 = _mm512_add_pd(sum1, hi);
  sq0 = _mm512_fmadd_pd(lo, lo, sq0);
  sq1 = _mm512_fmadd_pd(hi, hi, sq1);
}

SumStats stats_avx512(const float* z, std::size_t n) {
  __m512d sum0 = _mm512_setzero_pd(), sum1 = _mm512_setzero_pd();
  __m512d sq0 = _mm512_setzero_pd(), sq1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    accumulate16(_mm512_loadu_ps(z + i), sum0, sum1, sq0, sq1);
  }
  if (i < n) {
    accumulate16(_mm512_maskz_loadu_ps(tail_mask16(n - i), z + i), sum0, sum1,
                 sq0, sq1);
  }
  SumStats out;
  out.sum = hsum_pd512(_mm512_add_pd(sum0, sum1));
  out.sum_sq = hsum_pd512(_mm512_add_pd(sq0, sq1));
  return out;
}

double centered_sum_sq_avx512(const float* z, std::size_t n, double mean) {
  const __m512d mean_v = _mm512_set1_pd(mean);
  __m512d acc0 = _mm512_setzero_pd(), acc1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(z + i);
    const __m512d lo = _mm512_sub_pd(cvt_lo_pd(v), mean_v);
    const __m512d hi = _mm512_sub_pd(cvt_hi_pd(v), mean_v);
    acc0 = _mm512_fmadd_pd(lo, lo, acc0);
    acc1 = _mm512_fmadd_pd(hi, hi, acc1);
  }
  if (i < n) {
    // The subtraction itself must be masked: a zero-filled tail lane would
    // otherwise contribute mean^2 to the accumulator.
    const __mmask16 m = tail_mask16(n - i);
    const __mmask8 mlo = static_cast<__mmask8>(m & 0xFF);
    const __mmask8 mhi = static_cast<__mmask8>(m >> 8);
    const __m512 v = _mm512_maskz_loadu_ps(m, z + i);
    const __m512d lo = _mm512_maskz_sub_pd(mlo, cvt_lo_pd(v), mean_v);
    const __m512d hi = _mm512_maskz_sub_pd(mhi, cvt_hi_pd(v), mean_v);
    acc0 = _mm512_fmadd_pd(lo, lo, acc0);
    acc1 = _mm512_fmadd_pd(hi, hi, acc1);
  }
  return hsum_pd512(_mm512_add_pd(acc0, acc1));
}

void residual_add_avx512(float* h, const float* residual, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 sum =
        _mm512_add_ps(_mm512_loadu_ps(h + i), _mm512_loadu_ps(residual + i));
    _mm512_storeu_ps(h + i, sum);
  }
  if (i < n) {
    const __mmask16 m = tail_mask16(n - i);
    const __m512 sum = _mm512_add_ps(_mm512_maskz_loadu_ps(m, h + i),
                                     _mm512_maskz_loadu_ps(m, residual + i));
    _mm512_mask_storeu_ps(h + i, m, sum);
  }
}

void residual_add_copy_avx512(float* h, const float* residual, float* dst,
                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 sum =
        _mm512_add_ps(_mm512_loadu_ps(h + i), _mm512_loadu_ps(residual + i));
    _mm512_storeu_ps(h + i, sum);
    _mm512_storeu_ps(dst + i, sum);
  }
  if (i < n) {
    const __mmask16 m = tail_mask16(n - i);
    const __m512 sum = _mm512_add_ps(_mm512_maskz_loadu_ps(m, h + i),
                                     _mm512_maskz_loadu_ps(m, residual + i));
    _mm512_mask_storeu_ps(h + i, m, sum);
    _mm512_mask_storeu_ps(dst + i, m, sum);
  }
}

SumStats residual_add_stats_avx512(float* h, const float* residual,
                                   std::size_t n) {
  __m512d sum0 = _mm512_setzero_pd(), sum1 = _mm512_setzero_pd();
  __m512d sq0 = _mm512_setzero_pd(), sq1 = _mm512_setzero_pd();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 sum =
        _mm512_add_ps(_mm512_loadu_ps(h + i), _mm512_loadu_ps(residual + i));
    _mm512_storeu_ps(h + i, sum);
    accumulate16(sum, sum0, sum1, sq0, sq1);
  }
  if (i < n) {
    const __mmask16 m = tail_mask16(n - i);
    const __m512 sum = _mm512_add_ps(_mm512_maskz_loadu_ps(m, h + i),
                                     _mm512_maskz_loadu_ps(m, residual + i));
    _mm512_mask_storeu_ps(h + i, m, sum);
    accumulate16(sum, sum0, sum1, sq0, sq1);  // dead lanes are 0 + 0
  }
  SumStats out;
  out.sum = hsum_pd512(_mm512_add_pd(sum0, sum1));
  out.sum_sq = hsum_pd512(_mm512_add_pd(sq0, sq1));
  return out;
}

/// One normalized lane vector: (float)((z - mean) * isd) * alpha + beta, the
/// exact rounding sequence of the scalar reference.
inline __m512 normalize_lanes(__m512 zv, __m512d mean_v, __m512d isd_v,
                              const float* alpha, const float* beta,
                              std::size_t i, __mmask16 m, bool masked) {
  const __m512d lo = _mm512_mul_pd(_mm512_sub_pd(cvt_lo_pd(zv), mean_v), isd_v);
  const __m512d hi = _mm512_mul_pd(_mm512_sub_pd(cvt_hi_pd(zv), mean_v), isd_v);
  __m512 v = _mm512_insertf32x8(_mm512_castps256_ps512(_mm512_cvtpd_ps(lo)),
                                _mm512_cvtpd_ps(hi), 1);
  // alpha == nullptr multiplies by 1.0f, which is exact for every value; a
  // missing beta must genuinely skip the add (0.0f + -0.0f would flip signs).
  if (alpha != nullptr) {
    v = _mm512_mul_ps(v, masked ? _mm512_maskz_loadu_ps(m, alpha + i)
                                : _mm512_loadu_ps(alpha + i));
  }
  if (beta != nullptr) {
    v = _mm512_add_ps(v, masked ? _mm512_maskz_loadu_ps(m, beta + i)
                                : _mm512_loadu_ps(beta + i));
  }
  return v;
}

void normalize_affine_avx512(const float* z, std::size_t n, double mean,
                             double isd, const float* alpha, const float* beta,
                             float* out) {
  const __m512d mean_v = _mm512_set1_pd(mean);
  const __m512d isd_v = _mm512_set1_pd(isd);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = normalize_lanes(_mm512_loadu_ps(z + i), mean_v, isd_v,
                                     alpha, beta, i, 0, /*masked=*/false);
    _mm512_storeu_ps(out + i, v);
  }
  if (i < n) {
    const __mmask16 m = tail_mask16(n - i);
    const __m512 v = normalize_lanes(_mm512_maskz_loadu_ps(m, z + i), mean_v,
                                     isd_v, alpha, beta, i, m, /*masked=*/true);
    _mm512_mask_storeu_ps(out + i, m, v);
  }
}

void quantize_int8_avx512(float* values, std::size_t n, float scale) {
  const __m512 scale_v = _mm512_set1_ps(scale);
  const __m512 lo_v = _mm512_set1_ps(-128.0f);
  const __m512 hi_v = _mm512_set1_ps(127.0f);
  // 0x0C = round to integer per MXCSR + suppress precision exceptions, the
  // VRNDSCALE encoding of _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC.
  constexpr int kRound = _MM_FROUND_CUR_DIRECTION | _MM_FROUND_NO_EXC;
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 v = _mm512_loadu_ps(values + i);
    const __m512 q = _mm512_roundscale_ps(_mm512_div_ps(v, scale_v), kRound);
    // Keep q as the second operand so min/max propagate NaN like std::clamp.
    const __m512 clamped = _mm512_min_ps(hi_v, _mm512_max_ps(lo_v, q));
    _mm512_storeu_ps(values + i, _mm512_mul_ps(clamped, scale_v));
  }
  if (i < n) {
    const __mmask16 m = tail_mask16(n - i);
    const __m512 v = _mm512_maskz_loadu_ps(m, values + i);
    const __m512 q = _mm512_roundscale_ps(_mm512_div_ps(v, scale_v), kRound);
    const __m512 clamped = _mm512_min_ps(hi_v, _mm512_max_ps(lo_v, q));
    _mm512_mask_storeu_ps(values + i, m, _mm512_mul_ps(clamped, scale_v));
  }
}

void quantize_fp16_avx512(float* values, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i half = _mm512_cvtps_ph(_mm512_loadu_ps(values + i),
                                         _MM_FROUND_TO_NEAREST_INT);
    _mm512_storeu_ps(values + i, _mm512_cvtph_ps(half));
  }
  if (i < n) {
    const __mmask16 m = tail_mask16(n - i);
    const __m256i half = _mm512_cvtps_ph(_mm512_maskz_loadu_ps(m, values + i),
                                         _MM_FROUND_TO_NEAREST_INT);
    _mm512_mask_storeu_ps(values + i, m, _mm512_cvtph_ps(half));
  }
}

/// Integer replica of BFloat16::from_float/to_float: round-to-nearest-even
/// on the truncated 16 bits, quiet-NaN preservation. Bit-exact vs scalar.
inline __m512i bf16_round_lanes(__m512i bits) {
  const __m512i inf_bits = _mm512_set1_epi32(0x7F800000);
  const __m512i abs_mask = _mm512_set1_epi32(0x7FFFFFFF);
  const __m512i round_base = _mm512_set1_epi32(0x7FFF);
  const __m512i one = _mm512_set1_epi32(1);
  const __m512i quiet_bit = _mm512_set1_epi32(0x40);
  const __m512i abs = _mm512_and_si512(bits, abs_mask);
  const __mmask16 is_nan = _mm512_cmpgt_epi32_mask(abs, inf_bits);
  const __m512i top = _mm512_srli_epi32(bits, 16);
  const __m512i nan_res =
      _mm512_slli_epi32(_mm512_or_si512(top, quiet_bit), 16);
  const __m512i lsb = _mm512_and_si512(top, one);
  const __m512i rounded =
      _mm512_add_epi32(bits, _mm512_add_epi32(round_base, lsb));
  const __m512i rne_res = _mm512_slli_epi32(_mm512_srli_epi32(rounded, 16), 16);
  return _mm512_mask_blend_epi32(is_nan, rne_res, nan_res);
}

void quantize_bf16_avx512(float* values, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i bits = _mm512_castps_si512(_mm512_loadu_ps(values + i));
    _mm512_storeu_ps(values + i, _mm512_castsi512_ps(bf16_round_lanes(bits)));
  }
  if (i < n) {
    const __mmask16 m = tail_mask16(n - i);
    const __m512i bits =
        _mm512_castps_si512(_mm512_maskz_loadu_ps(m, values + i));
    _mm512_mask_storeu_ps(values + i, m,
                          _mm512_castsi512_ps(bf16_round_lanes(bits)));
  }
}

void quantize_dequantize_avx512(float* values, std::size_t n,
                                numerics::NumericFormat format, float scale) {
  switch (format) {
    case numerics::NumericFormat::kFP32:
      return;
    case numerics::NumericFormat::kFP16:
      quantize_fp16_avx512(values, n);
      return;
    case numerics::NumericFormat::kBF16:
      quantize_bf16_avx512(values, n);
      return;
    case numerics::NumericFormat::kINT8:
      quantize_int8_avx512(values, n, scale);
      return;
  }
}

// Row-block kernels: loop the per-row bodies above inside this TU, so every
// row runs the same vector/tail split as the per-row entry points (bit-
// identical per backend) with no per-row dispatch.

void stats_rows_avx512(const float* x, std::size_t rows, std::size_t stride,
                       std::size_t n, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = stats_avx512(x + r * stride, n);
  }
}

void centered_sum_sq_rows_avx512(const float* x, std::size_t rows,
                                 std::size_t stride, std::size_t n,
                                 const double* mean, double* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    out[r] = centered_sum_sq_avx512(x + r * stride, n, mean[r]);
  }
}

void residual_add_stats_rows_avx512(float* h, const float* residual,
                                    std::size_t rows, std::size_t d,
                                    std::size_t nstats, SumStats* out) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* hr = h + r * d;
    const float* rr = residual + r * d;
    out[r] = residual_add_stats_avx512(hr, rr, nstats);
    residual_add_avx512(hr + nstats, rr + nstats, d - nstats);
  }
}

constexpr float kSaturation = 65504.0f;  // FP16 max, the widest I/O format

/// NaN -> 0, clamp to +/-65504; elementwise, matching the scalar backend's
/// std::isnan/std::clamp sequence bit for bit.
inline __m512 saturate_lanes(__m512 x) {
  const __mmask16 nan_mask = _mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q);
  const __m512 clamped = _mm512_min_ps(_mm512_set1_ps(kSaturation),
                                       _mm512_max_ps(_mm512_set1_ps(-kSaturation), x));
  return _mm512_mask_blend_ps(nan_mask, clamped, _mm512_setzero_ps());
}

void saturate_avx512(float* v, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(v + i, saturate_lanes(_mm512_loadu_ps(v + i)));
  }
  if (i < n) {
    const __mmask16 m = tail_mask16(n - i);
    _mm512_mask_storeu_ps(v + i, m,
                          saturate_lanes(_mm512_maskz_loadu_ps(m, v + i)));
  }
}

void normalize_affine_rows_avx512(const float* x, std::size_t rows,
                                  std::size_t d, const double* mean,
                                  const double* isd, const float* alpha,
                                  const float* beta, float* out,
                                  bool saturate) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* out_r = out + r * d;
    normalize_affine_avx512(x + r * d, d, mean[r], isd[r], alpha, beta, out_r);
    if (saturate) saturate_avx512(out_r, d);
  }
}

void quantize_dequantize_rows_avx512(float* x, std::size_t rows, std::size_t d,
                                     numerics::NumericFormat format,
                                     const float* scales) {
  for (std::size_t r = 0; r < rows; ++r) {
    quantize_dequantize_avx512(x + r * d, d, format, scales[r]);
  }
}

// --- Matmul kernels (exact-order contract, see kernels.hpp) ---------------
// Lanes run across outputs (linear), keys or query rows (causal attention,
// below the exp kernels, whose softmax it runs); every lane is
// one output's own double accumulator stepping through the reduction index in
// ascending order, so the FMA chain rounds exactly like the scalar loop.

/// Output columns per linear block: four zmm of double accumulators per row
/// (16 + 16 columns), enough independent FMA chains to cover the FMA latency
/// even for a single row.
constexpr std::size_t kLinearCols = 32;
/// Rows sharing one column block per register tile.
constexpr std::size_t kLinearRows = 4;
/// Calls with at most this many rows (decode steps, small packs) widen each
/// float weight in registers as they read it; larger calls first widen the
/// column block into a double panel that all their tiles share. Measured on
/// a 4-vCPU AVX-512 host over the two perfbench models' shapes: direct reads
/// run 8-9 GMAC/s at 1 row and 14-17 GMAC/s at 3-8 rows, ahead of the panel
/// up to 8 rows on most shapes; from about 10 rows the panel's amortized
/// widening wins (19-27 GMAC/s from 16 rows up).
constexpr std::size_t kLinearDirectRows = 8;

/// Mask of the first min(count, 16) lanes.
inline __mmask16 column_mask16(std::size_t count) {
  return count >= 16 ? static_cast<__mmask16>(0xFFFF)
                     : static_cast<__mmask16>((1u << count) - 1u);
}

/// In-register transpose of a 16x16 float block: on return r[p] holds
/// column p (element k = old r[k][p]). Forced inline: an out-of-line call
/// would pass r through memory.
[[gnu::always_inline]] inline void transpose16x16(__m512 r[16]) {
  __m512 t[16];
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) {
    t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
    t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
  }
  // s[4i + j], 128-bit lane L: column 4L + j of rows 4i..4i+3.
  __m512d s[16];
#pragma GCC unroll 4
  for (int i = 0; i < 4; ++i) {
    const __m512d a = _mm512_castps_pd(t[4 * i]);
    const __m512d b = _mm512_castps_pd(t[4 * i + 1]);
    const __m512d c = _mm512_castps_pd(t[4 * i + 2]);
    const __m512d d = _mm512_castps_pd(t[4 * i + 3]);
    s[4 * i] = _mm512_unpacklo_pd(a, c);
    s[4 * i + 1] = _mm512_unpackhi_pd(a, c);
    s[4 * i + 2] = _mm512_unpacklo_pd(b, d);
    s[4 * i + 3] = _mm512_unpackhi_pd(b, d);
  }
#pragma GCC unroll 4
  for (int j = 0; j < 4; ++j) {
    const __m512 s0 = _mm512_castpd_ps(s[j]);
    const __m512 s1 = _mm512_castpd_ps(s[4 + j]);
    const __m512 s2 = _mm512_castpd_ps(s[8 + j]);
    const __m512 s3 = _mm512_castpd_ps(s[12 + j]);
    const __m512 x0 = _mm512_shuffle_f32x4(s0, s1, 0x44);
    const __m512 x1 = _mm512_shuffle_f32x4(s0, s1, 0xEE);
    const __m512 y0 = _mm512_shuffle_f32x4(s2, s3, 0x44);
    const __m512 y1 = _mm512_shuffle_f32x4(s2, s3, 0xEE);
    r[j] = _mm512_shuffle_f32x4(x0, y0, 0x88);
    r[4 + j] = _mm512_shuffle_f32x4(x0, y0, 0xDD);
    r[8 + j] = _mm512_shuffle_f32x4(x1, y1, 0x88);
    r[12 + j] = _mm512_shuffle_f32x4(x1, y1, 0xDD);
  }
}

/// Widens the input-major weight columns [o0, o0 + 32) of every reduction
/// step, masked by m_lo / m_hi, into panel[p*32 + k] = wt[p*out + o0 + k].
/// Masked-off columns stage +0.0 and never reach a stored output.
void stage_columns_avx512(const float* wt, std::size_t in, std::size_t out,
                          __mmask16 m_lo, __mmask16 m_hi, double* panel) {
  for (std::size_t p = 0; p < in; ++p) {
    const __m512 lo = _mm512_maskz_loadu_ps(m_lo, wt + p * out);
    const __m512 hi = _mm512_maskz_loadu_ps(m_hi, wt + p * out + 16);
    double* dst = panel + p * kLinearCols;
    _mm512_storeu_pd(dst, cvt_lo_pd(lo));
    _mm512_storeu_pd(dst + 8, cvt_hi_pd(lo));
    _mm512_storeu_pd(dst + 16, cvt_lo_pd(hi));
    _mm512_storeu_pd(dst + 24, cvt_hi_pd(hi));
  }
}

/// R rows of x against one 32-column block: y[r][0..32) for r < R, masked by
/// m_lo / m_hi (columns 0-15 / 16-31). Direct tiles read the float weights
/// at wt (row stride `out`) and widen them per step; panel tiles read the
/// block stage_columns_avx512 widened.
template <std::size_t R, bool Direct>
void linear_tile_avx512(const float* x, std::size_t in, const float* wt,
                        const double* panel, const __m512d bias[4],
                        __mmask16 m_lo, __mmask16 m_hi, std::size_t out,
                        float* y) {
  __m512d acc[R][4];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t g = 0; g < 4; ++g) acc[r][g] = bias[g];
  }
  for (std::size_t p = 0; p < in; ++p) {
    __m512d wv[4];
    if constexpr (Direct) {
      const __m512 lo = _mm512_maskz_loadu_ps(m_lo, wt + p * out);
      const __m512 hi = _mm512_maskz_loadu_ps(m_hi, wt + p * out + 16);
      wv[0] = cvt_lo_pd(lo);
      wv[1] = cvt_hi_pd(lo);
      wv[2] = cvt_lo_pd(hi);
      wv[3] = cvt_hi_pd(hi);
    } else {
#pragma GCC unroll 4
      for (std::size_t g = 0; g < 4; ++g) {
        wv[g] = _mm512_loadu_pd(panel + p * kLinearCols + 8 * g);
      }
    }
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const __m512d xv = _mm512_set1_pd(static_cast<double>(x[r * in + p]));
#pragma GCC unroll 4
      for (std::size_t g = 0; g < 4; ++g) {
        acc[r][g] = _mm512_fmadd_pd(xv, wv[g], acc[r][g]);
      }
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
    const __m512 lo = _mm512_insertf32x8(
        _mm512_castps256_ps512(_mm512_cvtpd_ps(acc[r][0])),
        _mm512_cvtpd_ps(acc[r][1]), 1);
    const __m512 hi = _mm512_insertf32x8(
        _mm512_castps256_ps512(_mm512_cvtpd_ps(acc[r][2])),
        _mm512_cvtpd_ps(acc[r][3]), 1);
    _mm512_mask_storeu_ps(y + r * out, m_lo, lo);
    _mm512_mask_storeu_ps(y + r * out + 16, m_hi, hi);
  }
}

/// All n rows of x against one 32-column block, in tiles of kLinearRows
/// rows and one smaller remainder tile.
template <bool Direct>
void linear_rows_avx512(const float* x, std::size_t n, std::size_t in,
                        const float* wt, const double* panel,
                        const __m512d bias[4], __mmask16 m_lo, __mmask16 m_hi,
                        std::size_t out, float* y) {
  static_assert(kLinearRows == 4, "remainder tiles cover 1-3 rows");
  std::size_t i = 0;
  for (; i + kLinearRows <= n; i += kLinearRows) {
    linear_tile_avx512<kLinearRows, Direct>(x + i * in, in, wt, panel, bias,
                                            m_lo, m_hi, out, y + i * out);
  }
  x += i * in;
  y += i * out;
  switch (n - i) {
    case 3:
      linear_tile_avx512<3, Direct>(x, in, wt, panel, bias, m_lo, m_hi, out, y);
      break;
    case 2:
      linear_tile_avx512<2, Direct>(x, in, wt, panel, bias, m_lo, m_hi, out, y);
      break;
    case 1:
      linear_tile_avx512<1, Direct>(x, in, wt, panel, bias, m_lo, m_hi, out, y);
      break;
    default:
      break;
  }
}

void linear_avx512(const float* x, std::size_t n, std::size_t in,
                   const float* wt, std::size_t out, const float* bias,
                   float* y) {
  thread_local std::vector<double> panel;
  const bool direct = n <= kLinearDirectRows;
  if (!direct) panel.resize(in * kLinearCols);
  for (std::size_t o0 = 0; o0 < out; o0 += kLinearCols) {
    const std::size_t width = std::min(kLinearCols, out - o0);
    const __mmask16 m_lo = column_mask16(width);
    const __mmask16 m_hi = column_mask16(width > 16 ? width - 16 : 0);
    __m512d b[4];
    const __m512 b_lo = bias == nullptr
                            ? _mm512_setzero_ps()
                            : _mm512_maskz_loadu_ps(m_lo, bias + o0);
    const __m512 b_hi = bias == nullptr
                            ? _mm512_setzero_ps()
                            : _mm512_maskz_loadu_ps(m_hi, bias + o0 + 16);
    b[0] = cvt_lo_pd(b_lo);
    b[1] = cvt_hi_pd(b_lo);
    b[2] = cvt_lo_pd(b_hi);
    b[3] = cvt_hi_pd(b_hi);
    if (direct) {
      linear_rows_avx512<true>(x, n, in, wt + o0, nullptr, b, m_lo, m_hi, out,
                               y + o0);
    } else {
      stage_columns_avx512(wt + o0, in, out, m_lo, m_hi, panel.data());
      linear_rows_avx512<false>(x, n, in, nullptr, panel.data(), b, m_lo,
                                m_hi, out, y + o0);
    }
  }
}

// --- Exp kernels -----------------------------------------------------------
// Eight double lanes per expf_model8 call, each lane one step of the scalar
// expf model (kernels/expf_model.hpp), so every lane rounds exactly like
// std::exp. Lanes libm treats specially (|x| >= 88, inf, NaN) are patched
// with std::exp itself.

/// The expf model over 8 floats. Lanes with |x| >= 88 or NaN come out
/// meaningless; expf16 replaces them.
inline __m256 expf_model8(__m256 x) {
  const __m512d inv_ln2n = _mm512_set1_pd(detail::kInvLn2N);
  const __m512d shift = _mm512_set1_pd(detail::kShift);
  const __m512d xd = _mm512_cvtps_pd(x);
  const __m512d shifted = _mm512_add_pd(_mm512_mul_pd(inv_ln2n, xd), shift);
  const __m512d kd = _mm512_sub_pd(shifted, shift);
  const __m512d r = _mm512_fmsub_pd(inv_ln2n, xd, kd);
  // s = 2^(ki/32): tab[ki % 32] out of four 8-entry registers (permutex2var
  // reads index bits 0-3, bit 4 picks the pair), plus ki << 47.
  const __m512i ki = _mm512_castpd_si512(shifted);
  const std::uint64_t* tab = detail::kExpTable;
  const __m512i lo = _mm512_permutex2var_epi64(_mm512_loadu_si512(tab), ki,
                                               _mm512_loadu_si512(tab + 8));
  const __m512i hi = _mm512_permutex2var_epi64(_mm512_loadu_si512(tab + 16), ki,
                                               _mm512_loadu_si512(tab + 24));
  const __mmask8 upper = _mm512_test_epi64_mask(ki, _mm512_set1_epi64(16));
  const __m512d s = _mm512_castsi512_pd(_mm512_add_epi64(
      _mm512_mask_blend_epi64(upper, lo, hi), _mm512_slli_epi64(ki, 47)));
  const __m512d p = _mm512_fmadd_pd(_mm512_set1_pd(detail::kC0), r,
                                    _mm512_set1_pd(detail::kC1));
  const __m512d q =
      _mm512_fmadd_pd(_mm512_set1_pd(detail::kC2), r, _mm512_set1_pd(1.0));
  const __m512d y = _mm512_mul_pd(_mm512_fmadd_pd(p, _mm512_mul_pd(r, r), q), s);
  return _mm512_cvtpd_ps(y);
}

/// e with its `lanes` recomputed as std::exp(x): libm's own special cases.
[[gnu::noinline]] __m512 expf_libm_lanes(__m512 x, __m512 e, __mmask16 lanes) {
  alignas(64) float xs[16];
  alignas(64) float es[16];
  _mm512_store_ps(xs, x);
  _mm512_store_ps(es, e);
  for (int i = 0; i < 16; ++i) {
    if ((lanes >> i) & 1) es[i] = std::exp(xs[i]);
  }
  return _mm512_load_ps(es);
}

/// std::exp of the 16 floats in x, bit for bit; `valid` marks the lanes that
/// hold data (the others may hold anything and never reach libm).
inline __m512 expf16(__m512 x, __mmask16 valid) {
  const __m512 e = _mm512_insertf32x8(
      _mm512_castps256_ps512(expf_model8(_mm512_castps512_ps256(x))),
      expf_model8(_mm512_extractf32x8_ps(x, 1)), 1);
  const __m512i abs_bits = _mm512_and_si512(_mm512_castps_si512(x),
                                            _mm512_set1_epi32(0x7FFFFFFF));
  const __mmask16 special = _mm512_mask_cmpge_epu32_mask(
      valid, abs_bits, _mm512_set1_epi32(detail::kExpSpecialAbsBits));
  return special == 0 ? e : expf_libm_lanes(x, e, special);
}

void exp_avx512(const float* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 m = column_mask16(n - i);
    _mm512_mask_storeu_ps(out + i, m,
                          expf16(_mm512_maskz_loadu_ps(m, x + i), m));
  }
}

void softmax_avx512(float* row, std::size_t n) {
  // max_ps(v, acc) = v > acc ? v : acc, the operands of std::max(acc, v): a
  // NaN never replaces the running max. Across lanes only the value counts —
  // should +0 and -0 tie as the maximum, v - max_v differs at most in the
  // sign of a zero, and exp(+-0) = 1.
  __m512 acc = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 m = column_mask16(n - i);
    acc = _mm512_mask_max_ps(acc, m, _mm512_maskz_loadu_ps(m, row + i), acc);
  }
  const __m512 max_v = _mm512_set1_ps(_mm512_reduce_max_ps(acc));
  // The double sum stays one scalar chain in ascending order; the next
  // block's exp overlaps it.
  double sum = 0.0;
  alignas(64) float e[16];
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 m = column_mask16(n - i);
    const __m512 v =
        expf16(_mm512_sub_ps(_mm512_maskz_loadu_ps(m, row + i), max_v), m);
    _mm512_store_ps(e, v);
    _mm512_mask_storeu_ps(row + i, m, v);
    const std::size_t count = std::min<std::size_t>(16, n - i);
    for (std::size_t k = 0; k < count; ++k) sum += e[k];
  }
  HAAN_ASSERT(sum > 0.0);
  const __m512d sum_v = _mm512_set1_pd(sum);
  for (std::size_t i = 0; i < n; i += 8) {
    const auto m = static_cast<__mmask8>(column_mask16(n - i));  // low 8 lanes
    const __m512d v = _mm512_cvtps_pd(_mm256_maskz_loadu_ps(m, row + i));
    _mm256_mask_storeu_ps(row + i, m, _mm512_cvtpd_ps(_mm512_div_pd(v, sum_v)));
  }
}

void silu_avx512(float* v, std::size_t n) {
  const __m512 one = _mm512_set1_ps(1.0f);
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 m = column_mask16(n - i);
    const __m512 x = _mm512_maskz_loadu_ps(m, v + i);
    // -x flips the sign bit, like the scalar unary minus (NaN included).
    const __m512 e = expf16(_mm512_xor_ps(x, _mm512_set1_ps(-0.0f)), m);
    _mm512_mask_storeu_ps(v + i, m, _mm512_div_ps(x, _mm512_add_ps(one, e)));
  }
}

// --- GELU --------------------------------------------------------------------
// The seed loop on 16 lanes through the tanhf model (kernels/tanhf_model.hpp),
// which covers every input: no lane goes to libm. Tail lanes load +0.0.

void gelu_avx512(float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 m = column_mask16(n - i);
    _mm512_mask_storeu_ps(v + i, m,
                          detail::gelu_lanes(_mm512_maskz_loadu_ps(m, v + i)));
  }
}

// --- Causal attention (exact-order contract, see kernels.hpp) --------------
// Two shapes of the same per-row arithmetic. A tile of kTileRows query rows
// puts one row in each lane: every lane keeps its row's exact order (the
// c-ascending score FMA chain, the ascending max, double sum and P·V sum),
// and the rows run side by side, so one row's sequential chains overlap with
// fifteen others instead of bounding the latency. A tile with few live rows
// (decode steps) runs the per-row kernels, lanes across keys or columns.

/// Query rows per tile: one row per float lane.
constexpr std::size_t kTileRows = 16;
/// Tiles with fewer live rows run the per-row kernels. A tile costs about the
/// same whatever its live-row count; measured on an AVX-512 host (d_head 16
/// and 24, 1 to 176 keys), the per-row kernels are faster below this count.
constexpr std::size_t kMinTileRows = 4;
/// Keys whose score chains run side by side in one tile step: 8 FMA chains.
constexpr std::size_t kScoreKeys = 4;

/// One query row's scores against keys stored transposed (kt is d_head x ld,
/// key j in column j): scores[j] = scale * (float)(Σ_c q[c] * kt[c*ld + j]),
/// lanes across keys.
void attention_scores_row(const float* q, std::size_t d_head, const float* kt,
                          std::size_t ld, std::size_t ctx, float scale,
                          float* scores) {
  constexpr std::size_t kLanes = 4;  // 4 x 8 keys in flight per query row
  const __m256 scale_v = _mm256_set1_ps(scale);
  for (std::size_t j = 0; j < ctx; j += 8 * kLanes) {
    __mmask8 m[kLanes];
    __m512d acc[kLanes];
#pragma GCC unroll 8
    for (std::size_t s = 0; s < kLanes; ++s) {
      const std::size_t start = j + 8 * s;
      const std::size_t keys = start < ctx ? ctx - start : 0;
      m[s] = static_cast<__mmask8>(column_mask16(keys));  // low 8 lanes
      acc[s] = _mm512_setzero_pd();
    }
    for (std::size_t c = 0; c < d_head; ++c) {
      const __m512d qc = _mm512_set1_pd(static_cast<double>(q[c]));
      const float* row = kt + c * ld + j;
#pragma GCC unroll 8
      for (std::size_t s = 0; s < kLanes; ++s) {
        const __m512d k =
            _mm512_cvtps_pd(_mm256_maskz_loadu_ps(m[s], row + 8 * s));
        acc[s] = _mm512_fmadd_pd(qc, k, acc[s]);
      }
    }
#pragma GCC unroll 8
    for (std::size_t s = 0; s < kLanes; ++s) {
      _mm256_mask_storeu_ps(scores + j + 8 * s, m[s],
                            _mm256_mul_ps(scale_v, _mm512_cvtpd_ps(acc[s])));
    }
  }
}

/// One attention row's P·V: out[c] = +0.0f, then out[c] += p[j] * v[j*ld + c]
/// over j ascending, skipping p[j] == 0.0f; lanes across c.
void attention_context_row(const float* p, std::size_t ctx, const float* v,
                           std::size_t ld, std::size_t d_head, float* out) {
  for (std::size_t c = 0; c < d_head; c += 16) {
    const __mmask16 m = column_mask16(d_head - c);
    __m512 acc = _mm512_setzero_ps();
    for (std::size_t j = 0; j < ctx; ++j) {
      if (p[j] == 0.0f) continue;
      const __m512 vj = _mm512_maskz_loadu_ps(m, v + j * ld + c);
      acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_set1_ps(p[j]), vj));
    }
    _mm512_mask_storeu_ps(out + c, m, acc);
  }
}

/// Per-thread scratch of causal_attention_avx512, grown on demand.
struct AttentionScratch {
  std::vector<double> kd;     // K^T in double: kd[c*keys + j]
  std::vector<double> qt;     // a tile's Q transposed: qt[c*16 + lane]
  std::vector<float> w;       // a tile's scores, then weights: w[j*16 + lane]
  std::vector<float> scores;  // one row's scores for the per-row kernels
};

/// The lanes of a tile whose first row sits at first_pos that attend key j:
/// lane i attends j when j <= first_pos + i.
inline __mmask16 causal_lanes(std::size_t j, std::size_t first_pos,
                              __mmask16 live) {
  return j <= first_pos
             ? live
             : static_cast<__mmask16>(live & (0xFFFFu << (j - first_pos)));
}

/// Scores of keys [j, j + KB) for every lane of a tile against the double
/// K^T kd (row stride keys), folded into the lane-wise running max.
template <std::size_t KB>
inline void tile_scores(const double* qt, const double* kd, std::size_t keys,
                        std::size_t d_head, std::size_t j, __m512 scale,
                        std::size_t first_pos, __mmask16 live, float* w,
                        __m512& max_v) {
  __m512d lo[KB];
  __m512d hi[KB];
#pragma GCC unroll 4
  for (std::size_t b = 0; b < KB; ++b) {
    lo[b] = _mm512_setzero_pd();
    hi[b] = _mm512_setzero_pd();
  }
  for (std::size_t c = 0; c < d_head; ++c) {
    const __m512d q_lo = _mm512_loadu_pd(qt + c * kTileRows);
    const __m512d q_hi = _mm512_loadu_pd(qt + c * kTileRows + 8);
    const double* key = kd + c * keys + j;
#pragma GCC unroll 4
    for (std::size_t b = 0; b < KB; ++b) {
      const __m512d kc = _mm512_set1_pd(key[b]);
      lo[b] = _mm512_fmadd_pd(q_lo, kc, lo[b]);
      hi[b] = _mm512_fmadd_pd(q_hi, kc, hi[b]);
    }
  }
  // max_ps(s, max) = s > max ? s : max, the operands of std::max(max, s):
  // a NaN score never replaces the running max, and ties keep the old one.
#pragma GCC unroll 4
  for (std::size_t b = 0; b < KB; ++b) {
    const __m512 s = _mm512_mul_ps(
        scale, _mm512_insertf32x8(_mm512_castps256_ps512(_mm512_cvtpd_ps(lo[b])),
                                  _mm512_cvtpd_ps(hi[b]), 1));
    _mm512_storeu_ps(w + (j + b) * kTileRows, s);
    max_v = _mm512_mask_max_ps(max_v, causal_lanes(j + b, first_pos, live), s,
                               max_v);
  }
}

/// (float)(e / sum) on 8 lanes with 0 <= e <= 1 <= sum (softmax weights),
/// bit for bit, given inv = 1 / sum. q = e * inv is within 2.5 double ulps of
/// the rounded quotient e / sum, so when every double within 8 ulps of q
/// rounds to the same float, that float is (float)(e / sum): float rounding
/// is monotone. Otherwise — about once in 10^7 lanes — the lane divides.
/// Dividing every lane instead cost 7% of prefill_offline throughput.
inline __m256 softmax_weight8(__m512d e, __m512d sum, __m512d inv) {
  const __m512i bits = _mm512_castpd_si512(_mm512_mul_pd(e, inv));
  const __m512i step = _mm512_set1_epi64(8);
  // q >= 0, so its bit pattern is monotone in q; q = 0 stays at 0 below.
  const __m256 below = _mm512_cvtpd_ps(_mm512_castsi512_pd(
      _mm512_max_epi64(_mm512_sub_epi64(bits, step), _mm512_setzero_si512())));
  const __m256 above = _mm512_cvtpd_ps(
      _mm512_castsi512_pd(_mm512_add_epi64(bits, step)));
  const __mmask8 ambiguous = _mm256_cmpneq_epi32_mask(
      _mm256_castps_si256(below), _mm256_castps_si256(above));
  if (ambiguous == 0) return below;
  return _mm512_mask_cvtpd_ps(below, ambiguous, _mm512_div_pd(e, sum));
}

/// P·V of output columns [0, NC) of a tile: acc[c] lane i is row i's column
/// c, each key added under its causal lanes whose weight is not 0.0f
/// (_CMP_NEQ_UQ keeps NaN weights, like the scalar `p == 0` skip).
template <std::size_t NC>
void tile_context(const float* w, std::size_t keys, const float* v,
                  std::size_t ld, std::size_t first_pos, __mmask16 live,
                  float* out) {
  __m512 acc[kTileRows];
#pragma GCC unroll 16
  for (std::size_t c = 0; c < kTileRows; ++c) acc[c] = _mm512_setzero_ps();
  for (std::size_t j = 0; j < keys; ++j) {
    const __m512 p = _mm512_loadu_ps(w + j * kTileRows);
    const __mmask16 m = _mm512_mask_cmp_ps_mask(
        causal_lanes(j, first_pos, live), p, _mm512_setzero_ps(),
        _CMP_NEQ_UQ);
    const float* vj = v + j * ld;
#pragma GCC unroll 16
    for (std::size_t c = 0; c < NC; ++c) {
      acc[c] = _mm512_mask_add_ps(acc[c], m, acc[c],
                                  _mm512_mul_ps(p, _mm512_set1_ps(vj[c])));
    }
  }
  transpose16x16(acc);  // acc[i] = row i's columns
  const __mmask16 cols = column_mask16(NC);
  for (std::size_t i = 0; i < kTileRows; ++i) {
    if ((live >> i) & 1) _mm512_mask_storeu_ps(out + i * ld, cols, acc[i]);
  }
}

template <std::size_t... N>
constexpr auto make_tile_context_table(std::index_sequence<N...>) {
  return std::array{&tile_context<N + 1>...};
}

/// tile_context<NC> for NC = 1..16, indexed by NC - 1.
constexpr auto kTileContext =
    make_tile_context_table(std::make_index_sequence<kTileRows>{});

/// One tile: `live` rows from q (row stride ld), the first at first_pos,
/// against the double K^T kd of the call's kd_keys keys (its row stride).
void attention_tile(const float* q, std::size_t live, const double* kd,
                    std::size_t kd_keys, const float* v, std::size_t ld,
                    std::size_t d_head, std::size_t first_pos, float scale,
                    AttentionScratch& ws, float* out) {
  const std::size_t keys = first_pos + live;
  const __mmask16 live_mask = column_mask16(live);
  ws.w.resize(keys * kTileRows);
  float* w = ws.w.data();
  // Q transposed to lanes, in double: qt[c*16 + i] = q[i*ld + c].
  double* qt = ws.qt.data();
  for (std::size_t c0 = 0; c0 < d_head; c0 += 16) {
    const __mmask16 cols = column_mask16(d_head - c0);
    __m512 r[16];
#pragma GCC unroll 16
    for (std::size_t i = 0; i < 16; ++i) {
      r[i] = i < live ? _mm512_maskz_loadu_ps(cols, q + i * ld + c0)
                      : _mm512_setzero_ps();
    }
    transpose16x16(r);
    const std::size_t width = std::min<std::size_t>(16, d_head - c0);
    for (std::size_t c = 0; c < width; ++c) {
      _mm512_storeu_pd(qt + (c0 + c) * kTileRows, cvt_lo_pd(r[c]));
      _mm512_storeu_pd(qt + (c0 + c) * kTileRows + 8, cvt_hi_pd(r[c]));
    }
  }

  // Scores and the lane-wise max.
  const __m512 scale_v = _mm512_set1_ps(scale);
  __m512 max_v = _mm512_set1_ps(-std::numeric_limits<float>::infinity());
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
  // never reach libm), and one ascending double sum per lane.
  __m512d sum_lo = _mm512_setzero_pd();
  __m512d sum_hi = _mm512_setzero_pd();
  for (j = 0; j < keys; ++j) {
    const __mmask16 m = causal_lanes(j, first_pos, live_mask);
    const __m512 x =
        _mm512_maskz_sub_ps(m, _mm512_loadu_ps(w + j * kTileRows), max_v);
    const __m512 e = _mm512_maskz_mov_ps(m, expf16(x, m));
    _mm512_storeu_ps(w + j * kTileRows, e);
    sum_lo = _mm512_mask_add_pd(sum_lo, static_cast<__mmask8>(m), sum_lo,
                                cvt_lo_pd(e));
    sum_hi = _mm512_mask_add_pd(sum_hi, static_cast<__mmask8>(m >> 8), sum_hi,
                                cvt_hi_pd(e));
  }
  const auto positive =
      static_cast<__mmask16>(
          _mm512_cmp_pd_mask(sum_lo, _mm512_setzero_pd(), _CMP_GT_OQ) |
          (_mm512_cmp_pd_mask(sum_hi, _mm512_setzero_pd(), _CMP_GT_OQ) << 8));
  HAAN_ASSERT((positive & live_mask) == live_mask);

  // p = (float)(e / sum), lane-wise. Lanes past `live` divide by 1.
  const __m512d one = _mm512_set1_pd(1.0);
  sum_lo = _mm512_mask_mov_pd(one, static_cast<__mmask8>(live_mask), sum_lo);
  sum_hi = _mm512_mask_mov_pd(one, static_cast<__mmask8>(live_mask >> 8),
                              sum_hi);
  const __m512d inv_lo = _mm512_div_pd(one, sum_lo);
  const __m512d inv_hi = _mm512_div_pd(one, sum_hi);
  for (j = 0; j < keys; ++j) {
    const __m512 e = _mm512_loadu_ps(w + j * kTileRows);
    const __m256 p_lo = softmax_weight8(cvt_lo_pd(e), sum_lo, inv_lo);
    const __m256 p_hi = softmax_weight8(cvt_hi_pd(e), sum_hi, inv_hi);
    _mm512_storeu_ps(w + j * kTileRows,
                     _mm512_insertf32x8(_mm512_castps256_ps512(p_lo), p_hi, 1));
  }

  for (std::size_t c0 = 0; c0 < d_head; c0 += 16) {
    const std::size_t width = std::min<std::size_t>(16, d_head - c0);
    kTileContext[width - 1](w, keys, v + c0, ld, first_pos, live_mask,
                            out + c0);
  }
}

void causal_attention_avx512(const float* q, std::size_t rows,
                             const float* kt, std::size_t ldk, const float* v,
                             std::size_t ld, std::size_t d_head,
                             std::size_t start_position, float scale,
                             float* out) {
  thread_local AttentionScratch ws;
  // The partial tile goes first, where its rows' contexts are shortest.
  const std::size_t head = rows % kTileRows;
  std::size_t i0 = 0;
  if (head != 0 && head < kMinTileRows) {
    detail::attention_rows<attention_scores_row, softmax_avx512,
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
    for (std::size_t j = 0; j < keys; j += 8) {
      const auto m = static_cast<__mmask8>(column_mask16(keys - j));
      _mm512_mask_storeu_pd(dst + j, m,
                            _mm512_cvtps_pd(_mm256_maskz_loadu_ps(m, src + j)));
    }
  }
  ws.qt.resize(d_head * kTileRows);
  while (i0 < rows) {
    const std::size_t live = i0 == 0 && head != 0 ? head : kTileRows;
    attention_tile(q + i0 * ld, live, ws.kd.data(), keys, v, ld, d_head,
                   start_position + i0, scale, ws, out + i0 * ld);
    i0 += live;
  }
}

constexpr KernelTable kAvx512Table = {
    "avx512",
    stats_avx512,
    centered_sum_sq_avx512,
    residual_add_avx512,
    residual_add_copy_avx512,
    normalize_affine_avx512,
    quantize_dequantize_avx512,
    stats_rows_avx512,
    centered_sum_sq_rows_avx512,
    residual_add_stats_rows_avx512,
    normalize_affine_rows_avx512,
    quantize_dequantize_rows_avx512,
    linear_avx512,
    causal_attention_avx512,
    exp_avx512,
    softmax_avx512,
    silu_avx512,
    gelu_avx512,
};

}  // namespace

namespace detail {
const KernelTable* avx512_table() { return &kAvx512Table; }
}  // namespace detail

}  // namespace haan::kernels

#else  // compiler cannot target AVX-512 (or not x86)

namespace haan::kernels::detail {
const KernelTable* avx512_table() { return nullptr; }
}  // namespace haan::kernels::detail

#endif
