// Runtime-dispatched kernels: the vectorized hot loops behind every norm in
// the repo, plus the forward pass's matmul, causal attention, softmax, SiLU
// and GELU loops. One KernelTable per backend (portable scalar, AVX2,
// AVX-512, NEON); dispatch picks the widest backend the CPU supports once at
// first use, with `HAAN_FORCE_SCALAR=1` forcing the scalar reference.
//
// The scalar backend is the semantic reference: it reproduces the seed
// `tensor::norm_ref` / `core::subsample` arithmetic bit for bit (same
// accumulation order, same double intermediates, same float rounding points).
// SIMD backends are tested against it under the per-kernel tolerance contract
// documented on each KernelTable entry.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "numerics/formats.hpp"

namespace haan::kernels {

/// Raw sums from one pass over the data, double accumulators:
///   sum = Σ z[i],  sum_sq = Σ z[i]^2.
struct SumStats {
  double sum = 0.0;
  double sum_sq = 0.0;
};

/// One backend's kernel set. All pointers are non-null; alpha/beta may be
/// null (identity). Spans must not alias except where noted.
///
/// Tolerance contract (SIMD vs the scalar reference, per kernel):
///   stats / centered_sum_sq (and their _rows forms, residual_add_stats_rows)
///     Reassociated accumulation: |Δsum| <= 1e-12 * Σ|z|, |Δsum_sq| <=
///     1e-12 * Σ z^2 (and likewise for the centered moment). The updated `h`
///     of residual_add_stats_rows is bit-identical (the float adds are
///     elementwise).
///   residual_add / residual_add_copy
///     Bit-identical: elementwise float adds in both backends.
///   normalize_affine
///     Elementwise with double intermediates; results within 1 ulp of scalar.
///     All kernel TUs are built with -ffp-contract=off (see CMakeLists) so
///     the affine multiply-add rounds identically everywhere; without it, a
///     backend whose ISA has FMA could contract its tail loops and diverge
///     arbitrarily under cancellation.
///   quantize_dequantize
///     FP32/INT8/BF16: bit-identical for every input including NaN. FP16:
///     bit-identical for all non-NaN inputs; NaN stays NaN but the payload
///     bits may differ (both backends produce a quiet NaN).
///   linear / causal_attention
///     Bit-identical (exact-order contract, see the entries below).
///   exp / softmax / silu / gelu
///     Bit-identical for every input, inf and NaN included. SIMD lanes run a
///     lane-wise model of glibc 2.36's FMA expf (kernels/expf_model.hpp);
///     lanes with |x| >= 88, inf or NaN call std::exp. gelu's lanes run a
///     model of the same libm's fdlibm tanhf and expm1f
///     (kernels/tanhf_model.hpp) for every input, with each libm branch a
///     per-lane mask and blend. The dispatcher checks both models against
///     this process's libm on probe inputs once, when it resolves the
///     tables. On an expf mismatch (another libm, or glibc's non-FMA
///     variant) the SIMD tables carry the scalar exp / softmax / silu and
///     causal_attention (whose softmax calls the model directly); on a tanhf
///     mismatch (a correctly rounded tanhf, as in glibc >= 2.41) they carry
///     the scalar gelu.
struct KernelTable {
  /// Backend family: "scalar", "avx2", "avx512" or "neon".
  const char* name;

  /// Sum and sum of squares of z[0..n).
  SumStats (*stats)(const float* z, std::size_t n);

  /// Σ (z[i] - mean)^2 over z[0..n), double accumulation.
  double (*centered_sum_sq)(const float* z, std::size_t n, double mean);

  /// h[i] += residual[i].
  void (*residual_add)(float* h, const float* residual, std::size_t n);

  /// h[i] += residual[i]; dst[i] = h[i] — one pass feeding a scratch buffer.
  void (*residual_add_copy)(float* h, const float* residual, float* dst,
                            std::size_t n);

  /// out[i] = (float)((z[i] - mean) * isd), then out[i] *= alpha[i] (when
  /// alpha != nullptr) and out[i] += beta[i] (when beta != nullptr), all in
  /// float. Pass mean = 0.0 for the RMSNorm flavour. out may alias z.
  void (*normalize_affine)(const float* z, std::size_t n, double mean,
                           double isd, const float* alpha, const float* beta,
                           float* out);

  /// Elementwise numerics::quantize_dequantize over values[0..n).
  void (*quantize_dequantize)(float* values, std::size_t n,
                              numerics::NumericFormat format, float scale);

  // --- Row-block kernels -----------------------------------------------
  // One call per norm *layer* instead of one per token row: the backend loops
  // the rows internally (no per-row dispatch), reading a contiguous row-major
  // block. Each row is processed with exactly the per-row kernel's arithmetic
  // (stats, centered_sum_sq, normalize_affine, quantize_dequantize), so for a
  // given backend the row-block kernels are bit-identical to looping those
  // entries; the scalar/SIMD tolerance contract above carries over per row
  // unchanged.

  /// out[r] = stats of x[r*stride .. r*stride + n) for r in [0, rows).
  /// n <= stride selects a subsampled prefix of each row (HAAN Nsub).
  void (*stats_rows)(const float* x, std::size_t rows, std::size_t stride,
                     std::size_t n, SumStats* out);

  /// out[r] = Σ (x[r*stride + i] - mean[r])^2 over i in [0, n).
  void (*centered_sum_sq_rows)(const float* x, std::size_t rows,
                               std::size_t stride, std::size_t n,
                               const double* mean, double* out);

  /// h[r][i] += residual[r][i] for every element of the (rows x d) block;
  /// out[r] = stats of the first `nstats` updated elements of row r. The
  /// updated h is bit-identical to residual_add; the per-row stats are
  /// bit-identical to stats() over the updated prefix.
  void (*residual_add_stats_rows)(float* h, const float* residual,
                                  std::size_t rows, std::size_t d,
                                  std::size_t nstats, SumStats* out);

  /// Per-row normalize+affine with per-row mean/isd:
  ///   out[r][i] = (float)((x[r][i] - mean[r]) * isd[r]) (*alpha[i], +beta[i]).
  /// When `saturate` is set, each element is then clamped to the HAAN
  /// datapath's FP16 I/O range (NaN -> 0, clamp to +/-65504) — bit-identical
  /// to a separate clamp pass over the same values.
  void (*normalize_affine_rows)(const float* x, std::size_t rows, std::size_t d,
                                const double* mean, const double* isd,
                                const float* alpha, const float* beta,
                                float* out, bool saturate);

  /// Per-row quantize-dequantize over a (rows x d) block; scales[r] is the
  /// INT8 scale of row r (ignored by the float formats).
  void (*quantize_dequantize_rows)(float* x, std::size_t rows, std::size_t d,
                                   numerics::NumericFormat format,
                                   const float* scales);

  // --- Matmul kernels ---------------------------------------------------
  // Exact-order contract: bit-identical on every backend, for any row count
  // and tile position. In linear and in causal_attention's scores each output
  // value owns one double accumulator that starts at its bias (or +0.0) and
  // adds the float x float products in ascending reduction index, then rounds
  // once to float. A float x float product is exact in double, so an FMA
  // rounds exactly like the separate multiply and add of the scalar loop.
  // SIMD lanes therefore run across rows, outputs or keys, never across the
  // reduction index. causal_attention's softmax and P·V keep the seed's
  // per-row order too. NaN and Inf propagate to the same positions (NaN
  // payloads may differ).

  /// y[i*out + o] = (float)(bias[o] + Σ_p x[i*in + p] * wt[p*out + o]) for
  /// i < n, o < out: y = x·W^T + b with the weight stored input-major, i.e.
  /// wt = W^T is (in x out) row-major, so the outputs of one reduction step
  /// are contiguous. x is (n x in) row-major; bias may be null (accumulators
  /// start at +0.0). y must not alias x or wt. The model stores every
  /// projection this way; tensor::linear adapts a row-major (out x in) W.
  void (*linear)(const float* x, std::size_t n, std::size_t in,
                 const float* wt, std::size_t out, const float* bias, float* y);

  /// Causal attention of one head over `rows` query rows. Query row i (at
  /// q + i*ld) sits at position start_position + i and attends keys
  /// j in [0, ctx_i), ctx_i = start_position + i + 1; its d_head outputs go
  /// to out + i*ld. K comes transposed: component c of key j is
  /// kt[c*ldk + j], with ldk >= keys = start_position + rows, so one head of
  /// a KvCache block's (d_model x capacity) K^T starts at row h*d_head. V is
  /// row-major, key j at v + j*ld. q, v and out share the row stride
  /// ld >= d_head, so one head of a (rows x d_model) block is addressed by
  /// offsetting those pointers. Only keys [0, keys) of the head's d_head K^T
  /// rows are read. Per row, in this order and no other:
  ///   s[j]  = scale * (float)(Σ_c q[c] * kt[c*ldk + j])  (double, c
  ///           ascending from +0.0)
  ///   max   = std::max(max, s[j]) folded over j ascending from -inf
  ///   e[j]  = std::exp(s[j] - max)                  (float)
  ///   sum   = Σ_j e[j] in double, j ascending from +0.0; asserted > 0, so
  ///           a NaN or +Inf score aborts
  ///   p[j]  = (float)(e[j] / sum)
  ///   out[c] = +0.0f, then out[c] += p[j] * v[j][c] over j ascending,
  ///           skipping keys with p[j] == 0.0f (NaN weights are kept); float
  ///           multiply then add, never fused.
  /// Every output depends only on its row's own prefix, never on how many
  /// rows share the call or which tile a row lands in. out must not alias
  /// q, kt or v.
  void (*causal_attention)(const float* q, std::size_t rows, const float* kt,
                           std::size_t ldk, const float* v, std::size_t ld,
                           std::size_t d_head, std::size_t start_position,
                           float scale, float* out);

  // --- Exp and tanh kernels ---------------------------------------------
  // The scalar entries are the seed loops of tensor::softmax / silu_inplace /
  // gelu_inplace; SIMD entries vectorize everything but the softmax's double
  // sum, whose sequential order is part of the result.

  /// out[i] = std::exp(x[i]) in float, for i < n. out may alias x.
  void (*exp)(const float* x, std::size_t n, float* out);

  /// In-place stable softmax of one row of n >= 1 floats: max_v folds
  /// std::max(max_v, v) from -inf, v = std::exp(v - max_v) in float, the
  /// values are summed in double in ascending order (asserted > 0), then
  /// v = (float)(v / sum).
  void (*softmax)(float* row, std::size_t n);

  /// v[i] = v[i] / (1.0f + std::exp(-v[i])) in float, in place.
  void (*silu)(float* v, std::size_t n);

  /// GELU, tanh approximation, in float and in place, in this order:
  ///   inner = 0.7978845608028654f * (v + ((0.044715f * v) * v) * v)
  ///   v     = (0.5f * v) * (1.0f + std::tanh(inner))
  void (*gelu)(float* v, std::size_t n);
};

/// Maps an empty span to the nullptr the kernel tables use for "no affine
/// parameter"; shared by every layer that bridges spans to raw kernels.
inline const float* data_or_null(std::span<const float> s) {
  return s.empty() ? nullptr : s.data();
}

/// The portable scalar backend (always available; the bit-exact reference).
const KernelTable& scalar_kernels();

/// The backend selected for this process: the widest SIMD backend the CPU
/// supports, or scalar when HAAN_FORCE_SCALAR=1 is set in the environment.
/// The choice is made once, at the first call, and cached.
const KernelTable& active();

/// active().name — for logs, bench reports and serve configs.
const char* active_name();

/// Every backend *family* this build + CPU can run (scalar first, then
/// ascending SIMD width). Parity tests and benches iterate this list; it
/// ignores HAAN_FORCE_SCALAR.
std::vector<const KernelTable*> supported_kernels();

/// True when the HAAN_FORCE_SCALAR environment variable requests the scalar
/// backend (set, non-empty, and not "0"). Read afresh on every call; note
/// active() caches its first answer.
bool force_scalar_requested();

// ---------------------------------------------------------------------------
// Span-level row-block norms: one call normalizes a whole contiguous
// (rows x d) block with exact statistics (the "Original" arithmetic of
// tensor::rmsnorm / tensor::layernorm), hoisting the per-layer bookkeeping
// (shape checks, eps math, scratch sizing) out of the row loop. Each takes the
// backend explicitly. A single vector is the block with rows = 1.
// ---------------------------------------------------------------------------

/// Reusable scratch for the row-block norms; hold one per thread and pass it
/// to every call so no allocation happens on the hot path. Its pages land on
/// the first-touching thread's node, which is the owner's node when that
/// thread is pinned.
struct RowNormWorkspace {
  std::vector<SumStats> stats;
  std::vector<double> mean;
  std::vector<double> isd;
};

/// RMSNorm of each row of the (rows x d) block `x`:
/// out[r] = alpha * (x[r] * isd_r) + beta with isd_r = 1 / sqrt(rms^2 + eps),
/// rms = sqrt(mean(x[r]^2)). Scalar dispatch is bit-identical to
/// tensor::rmsnorm on each row.
void rmsnorm_rows(const KernelTable& kernels, std::size_t rows,
                  std::span<const float> x, std::span<const float> alpha,
                  std::span<const float> beta, std::span<float> out,
                  double eps, RowNormWorkspace& ws);

/// LayerNorm of each row, two-pass variance like the seed reference: the row
/// sums, then the centered second moment, then the affine normalize. Scalar
/// dispatch is bit-identical to tensor::layernorm on each row.
void layernorm_rows(const KernelTable& kernels, std::size_t rows,
                    std::span<const float> x, std::span<const float> alpha,
                    std::span<const float> beta, std::span<float> out,
                    double eps, RowNormWorkspace& ws);

/// Fused residual add + rmsnorm_rows: h[r] += residual[r] in place (skipped
/// when `residual` is empty), with the add sharing its pass with the row
/// sums. Bit-identical to residual_add followed by rmsnorm_rows.
void residual_add_rmsnorm_rows(const KernelTable& kernels, std::size_t rows,
                               std::span<float> h,
                               std::span<const float> residual,
                               std::span<const float> alpha,
                               std::span<const float> beta, std::span<float> out,
                               double eps, RowNormWorkspace& ws);

/// Fused residual add + layernorm_rows, likewise.
void residual_add_layernorm_rows(const KernelTable& kernels, std::size_t rows,
                                 std::span<float> h,
                                 std::span<const float> residual,
                                 std::span<const float> alpha,
                                 std::span<const float> beta,
                                 std::span<float> out, double eps,
                                 RowNormWorkspace& ws);

/// Vectorized sum / sum-of-squares reduction over the active backend.
SumStats stats(std::span<const float> z);

/// h += residual over the active backend.
void residual_add(std::span<float> h, std::span<const float> residual);

/// Elementwise quantize-dequantize over the active backend (or an explicit
/// table, for tests and benches).
void quantize_dequantize_span(std::span<float> values,
                              numerics::NumericFormat format,
                              float scale = 1.0f);
void quantize_dequantize_span(const KernelTable& kernels,
                              std::span<float> values,
                              numerics::NumericFormat format,
                              float scale = 1.0f);

}  // namespace haan::kernels
