// Runtime-dispatched kernels: the vectorized hot loops behind every norm in
// the repo, plus the forward pass's matmul and attention-score loops. One
// KernelTable per backend (portable scalar, AVX2, AVX-512, NEON); dispatch
// picks the widest backend the CPU supports once at first use, with
// `HAAN_FORCE_SCALAR=1` forcing the scalar reference.
//
// The scalar backend is the semantic reference: it reproduces the seed
// `tensor::norm_ref` / `core::subsample` arithmetic bit for bit (same
// accumulation order, same double intermediates, same float rounding points).
// SIMD backends are tested against it under the per-kernel tolerance contract
// documented on each KernelTable entry.
#pragma once

#include <cstddef>
#include <memory_resource>
#include <span>
#include <string_view>
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
///   stats / residual_add_stats / centered_sum_sq
///     Reassociated accumulation: |Δsum| <= 1e-12 * Σ|z|, |Δsum_sq| <=
///     1e-12 * Σ z^2 (and likewise for the centered moment). The updated `h`
///     of residual_add_stats is bit-identical (the float adds are elementwise).
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
///   linear / attention_scores / attention_context
///     Bit-identical (exact-order contract, see the entries below).
struct KernelTable {
  /// Backend family ("scalar", "avx2", "avx512", "neon") or a row-block
  /// variant of one ("avx512-nt", "avx2-pf", ...; see
  /// supported_kernel_variants()).
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

  /// Fused residual add + statistics: h[i] += residual[i], returning the
  /// SumStats of the updated h in the same pass.
  SumStats (*residual_add_stats)(float* h, const float* residual, std::size_t n);

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
  // block. Each row is processed with exactly the per-row kernel's arithmetic,
  // so for a given backend the row-block kernels are bit-identical to looping
  // the per-row entries; the scalar/SIMD tolerance contract above carries
  // over per row unchanged.

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
  // and tile position. In linear and attention_scores each output value owns
  // one double accumulator that starts at its bias (or +0.0) and adds the
  // float x float products in ascending reduction index, then rounds once to
  // float. A float x float product is exact in double, so an FMA rounds
  // exactly like the separate multiply and add of the scalar loop. SIMD lanes
  // therefore run across rows, outputs or keys, never across the reduction
  // index. attention_context keeps the seed's float arithmetic, also in
  // ascending order. NaN and Inf propagate to the same positions (NaN
  // payloads may differ).

  /// y[i*out + o] = (float)(bias[o] + Σ_p x[i*in + p] * w[o*in + p]) for
  /// i < n, o < out: x is (n x in), w is (out x in), both row-major; bias may
  /// be null (accumulators start at +0.0). y must not alias x or w.
  void (*linear)(const float* x, std::size_t n, std::size_t in,
                 const float* w, std::size_t out, const float* bias, float* y);

  /// scores[j] = scale * (float)(Σ_c q[c] * kt[c*ld + j]) for j < ctx: one
  /// query row against ctx keys stored transposed (kt is d_head x ld,
  /// ld >= ctx), the reduction over c ascending from +0.0.
  void (*attention_scores)(const float* q, std::size_t d_head, const float* kt,
                           std::size_t ld, std::size_t ctx, float scale,
                           float* scores);

  /// out[c] += p[j] * v[j*ld + c] for c < d_head, over j ascending in
  /// [0, ctx), skipping keys whose weight p[j] is exactly 0.0f: the P·V
  /// product of one attention row, in float, each step a multiply then an
  /// add (never fused). Lanes run across c.
  void (*attention_context)(const float* p, std::size_t ctx, const float* v,
                            std::size_t ld, std::size_t d_head, float* out);
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

/// Every runnable kernel table including the row-block variants
/// ("avx2-pf", "avx512-nt", ...): the families of supported_kernels() plus
/// each family's streaming-store / prefetch variants. Variants are
/// value-identical to their base family (cache placement and latency hints
/// only); they are the autotuner's candidate set and the variant parity
/// tests' iteration list.
std::vector<const KernelTable*> supported_kernel_variants();

/// Looks a table up by exact name among supported_kernel_variants(); null
/// when the name is unknown or not runnable on this CPU. Used to resolve
/// autotune cache entries.
const KernelTable* find_kernel_table(std::string_view name);

/// True when the HAAN_FORCE_SCALAR environment variable requests the scalar
/// backend (set, non-empty, and not "0"). Read afresh on every call; note
/// active() caches its first answer.
bool force_scalar_requested();

// ---------------------------------------------------------------------------
// Span-level fused entry points. Each takes the backend explicitly (for tests
// and benches) and has an active()-dispatched overload (for production code).
// ---------------------------------------------------------------------------

/// Fused residual-add + RMSNorm: h[i] += residual[i] (in place; skipped when
/// `residual` is empty), then out = alpha * (h * isd) + beta with
/// isd = 1 / sqrt(rms^2 + eps), rms = sqrt(mean(h^2)). Scalar dispatch is
/// bit-identical to tensor::add_inplace + tensor::rmsnorm on the same data.
void residual_add_rmsnorm(const KernelTable& kernels, std::span<float> h,
                          std::span<const float> residual,
                          std::span<const float> alpha,
                          std::span<const float> beta, std::span<float> out,
                          double eps);
void residual_add_rmsnorm(std::span<float> h, std::span<const float> residual,
                          std::span<const float> alpha,
                          std::span<const float> beta, std::span<float> out,
                          double eps);

/// Fused residual-add + LayerNorm, two-pass variance like the seed reference:
/// pass 1 adds the residual and accumulates the sums, pass 2 computes the
/// centered second moment, pass 3 normalizes with the affine parameters.
void residual_add_layernorm(const KernelTable& kernels, std::span<float> h,
                            std::span<const float> residual,
                            std::span<const float> alpha,
                            std::span<const float> beta, std::span<float> out,
                            double eps);
void residual_add_layernorm(std::span<float> h, std::span<const float> residual,
                            std::span<const float> alpha,
                            std::span<const float> beta, std::span<float> out,
                            double eps);

// ---------------------------------------------------------------------------
// Row-block fused entry points: one call normalizes a whole contiguous
// (rows x d) block, hoisting the per-layer bookkeeping (shape checks, eps
// math, scratch sizing) out of the row loop. For a given backend the results
// are bit-identical to calling the per-row fused entry point on each row.
// ---------------------------------------------------------------------------

/// Reusable scratch for the row-block fused norms; hold one per thread and
/// pass it to every call so no allocation happens on the hot path. Construct
/// with a memory resource (e.g. a provider's node-local mem::Arena) to place
/// the scratch explicitly; default-constructed workspaces use the heap, whose
/// pages land on the first-touching thread's node anyway when that thread is
/// pinned.
struct RowNormWorkspace {
  RowNormWorkspace() = default;
  explicit RowNormWorkspace(std::pmr::memory_resource* resource)
      : stats(resource), mean(resource), isd(resource) {}

  std::pmr::vector<SumStats> stats;
  std::pmr::vector<double> mean;
  std::pmr::vector<double> isd;
};

/// Row-block fused residual-add + RMSNorm over a contiguous (rows x d) block:
/// h[r] += residual[r] in place (skipped when `residual` is empty), then
/// out[r] = alpha * (h[r] * isd_r) + beta per row. Bit-identical to calling
/// residual_add_rmsnorm(kernels, ...) on each row.
void residual_add_rmsnorm_rows(const KernelTable& kernels, std::size_t rows,
                               std::span<float> h,
                               std::span<const float> residual,
                               std::span<const float> alpha,
                               std::span<const float> beta, std::span<float> out,
                               double eps, RowNormWorkspace& ws);
void residual_add_rmsnorm_rows(std::size_t rows, std::span<float> h,
                               std::span<const float> residual,
                               std::span<const float> alpha,
                               std::span<const float> beta, std::span<float> out,
                               double eps, RowNormWorkspace& ws);

/// Row-block fused residual-add + LayerNorm (two-pass per-row variance, like
/// the per-row entry point). Bit-identical to the per-row loop.
void residual_add_layernorm_rows(const KernelTable& kernels, std::size_t rows,
                                 std::span<float> h,
                                 std::span<const float> residual,
                                 std::span<const float> alpha,
                                 std::span<const float> beta,
                                 std::span<float> out, double eps,
                                 RowNormWorkspace& ws);
void residual_add_layernorm_rows(std::size_t rows, std::span<float> h,
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
/// table, for providers threading an autotuned backend).
void quantize_dequantize_span(std::span<float> values,
                              numerics::NumericFormat format,
                              float scale = 1.0f);
void quantize_dequantize_span(const KernelTable& kernels,
                              std::span<float> values,
                              numerics::NumericFormat format,
                              float scale = 1.0f);

}  // namespace haan::kernels
