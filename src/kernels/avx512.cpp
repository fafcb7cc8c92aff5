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
#include <cmath>
#include <limits>
#include <vector>

#include "common/assert.hpp"
#include "kernels/expf_model.hpp"

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
// Lanes run across outputs (linear) or keys (attention_scores); every lane is
// one output's own double accumulator stepping through the reduction index in
// ascending order, so the FMA chain rounds exactly like the scalar loop.

/// Output columns per linear block: four zmm of double accumulators per row
/// (16 + 16 columns), enough independent FMA chains to cover the FMA latency
/// even for a single row.
constexpr std::size_t kLinearCols = 32;
/// Rows sharing one staged column panel per register tile.
constexpr std::size_t kLinearRows = 4;

/// Mask of the first min(count, 16) lanes.
inline __mmask16 column_mask16(std::size_t count) {
  return count >= 16 ? static_cast<__mmask16>(0xFFFF)
                     : static_cast<__mmask16>((1u << count) - 1u);
}

/// In-register transpose of a 16x16 float block: on return r[p] holds
/// column p (element k = old r[k][p]).
inline void transpose16x16(__m512 r[16]) {
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

/// Stages weight rows [0, width) of the (width x in) block at `w` as a
/// transposed double panel, panel[p*32 + k] = w[k*in + p], one 16x16 block
/// at a time; the panel holds round_up(in, 16) columns. Rows past `width`
/// and columns past `in` stage +0.0 and never reach a stored output.
void stage_columns_avx512(const float* w, std::size_t in, std::size_t width,
                          double* panel) {
  for (std::size_t k0 = 0; k0 < kLinearCols; k0 += 16) {
    for (std::size_t p0 = 0; p0 < in; p0 += 16) {
      const __mmask16 pm = column_mask16(in - p0);
      __m512 r[16];
#pragma GCC unroll 16
      for (std::size_t k = 0; k < 16; ++k) {
        r[k] = k0 + k < width
                   ? _mm512_maskz_loadu_ps(pm, w + (k0 + k) * in + p0)
                   : _mm512_setzero_ps();
      }
      transpose16x16(r);
      double* dst = panel + p0 * kLinearCols + k0;
#pragma GCC unroll 16
      for (std::size_t p = 0; p < 16; ++p) {
        _mm512_storeu_pd(dst + p * kLinearCols, cvt_lo_pd(r[p]));
        _mm512_storeu_pd(dst + p * kLinearCols + 8, cvt_hi_pd(r[p]));
      }
    }
  }
}

/// R rows of x against one staged panel: y[r][0..32) for r < R, masked by
/// m_lo / m_hi (columns 0-15 / 16-31).
template <std::size_t R>
void linear_tile_avx512(const float* x, std::size_t in, const double* panel,
                        const __m512d bias[4], __mmask16 m_lo, __mmask16 m_hi,
                        std::size_t out, float* y) {
  __m512d acc[R][4];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) {
#pragma GCC unroll 4
    for (std::size_t g = 0; g < 4; ++g) acc[r][g] = bias[g];
  }
  for (std::size_t p = 0; p < in; ++p) {
    __m512d wv[4];
#pragma GCC unroll 4
    for (std::size_t g = 0; g < 4; ++g) {
      wv[g] = _mm512_loadu_pd(panel + p * kLinearCols + 8 * g);
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

void linear_avx512(const float* x, std::size_t n, std::size_t in,
                   const float* w, std::size_t out, const float* bias,
                   float* y) {
  thread_local std::vector<double> panel;
  panel.resize((in + 15) / 16 * 16 * kLinearCols);
  for (std::size_t o0 = 0; o0 < out; o0 += kLinearCols) {
    const std::size_t width = std::min(kLinearCols, out - o0);
    const __mmask16 m_lo = column_mask16(width);
    const __mmask16 m_hi = column_mask16(width > 16 ? width - 16 : 0);
    stage_columns_avx512(w + o0 * in, in, width, panel.data());
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
    std::size_t i = 0;
    for (; i + kLinearRows <= n; i += kLinearRows) {
      linear_tile_avx512<kLinearRows>(x + i * in, in, panel.data(), b, m_lo,
                                      m_hi, out, y + i * out + o0);
    }
    for (; i < n; ++i) {
      linear_tile_avx512<1>(x + i * in, in, panel.data(), b, m_lo, m_hi, out,
                            y + i * out + o0);
    }
  }
}

void attention_scores_avx512(const float* q, std::size_t d_head,
                             const float* kt, std::size_t ld, std::size_t ctx,
                             float scale, float* scores) {
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

void attention_context_avx512(const float* p, std::size_t ctx, const float* v,
                              std::size_t ld, std::size_t d_head, float* out) {
  for (std::size_t c = 0; c < d_head; c += 16) {
    const __mmask16 m = column_mask16(d_head - c);
    __m512 acc = _mm512_maskz_loadu_ps(m, out + c);
    for (std::size_t j = 0; j < ctx; ++j) {
      if (p[j] == 0.0f) continue;
      const __m512 vj = _mm512_maskz_loadu_ps(m, v + j * ld + c);
      acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_set1_ps(p[j]), vj));
    }
    _mm512_mask_storeu_ps(out + c, m, acc);
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

constexpr KernelTable kAvx512Table = {
    "avx512",
    stats_avx512,
    centered_sum_sq_avx512,
    residual_add_avx512,
    residual_add_copy_avx512,
    residual_add_stats_avx512,
    normalize_affine_avx512,
    quantize_dequantize_avx512,
    stats_rows_avx512,
    centered_sum_sq_rows_avx512,
    residual_add_stats_rows_avx512,
    normalize_affine_rows_avx512,
    quantize_dequantize_rows_avx512,
    linear_avx512,
    attention_scores_avx512,
    attention_context_avx512,
    exp_avx512,
    softmax_avx512,
    silu_avx512,
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
