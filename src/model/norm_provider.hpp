// The normalization seam: the transformer calls a NormProvider for every
// normalization layer, identified by its global execution-order index. The
// exact provider lives here; the HAAN provider (skipping + subsampling +
// quantization) lives in `haan::core` and plugs into the same interface.
#pragma once

#include <span>
#include <vector>

#include "kernels/kernels.hpp"
#include "model/config.hpp"
#include "model/row_partition.hpp"

namespace haan::model {

/// Strategy interface for normalization layers.
///
/// `layer_index` is the global normalization-layer index in execution order:
/// block b contributes indices 2b (attention norm) and 2b+1 (MLP norm); the
/// final norm, when present, is index 2*n_blocks.
class NormProvider {
 public:
  virtual ~NormProvider() = default;

  /// Called once before each independent forward pass (token sequence). Lets
  /// stateful providers (e.g. the ISD predictor, which anchors its
  /// extrapolation on this sequence's early layers) reset per-sequence state.
  virtual void begin_sequence() {}

  /// Static-string label used as the span name for this provider's norm
  /// layers in exported traces ("norm/exact", "norm/haan", ...). Must point
  /// at storage that outlives the tracer (a string literal).
  virtual const char* trace_label() const { return "norm"; }

  /// Normalizes `z` into `out` (same length) with affine parameters
  /// alpha/beta (may be empty for identity). `position` is the token index the
  /// vector belongs to; the HAAN ISD predictor anchors per position.
  virtual void normalize(std::size_t layer_index, std::size_t position, NormKind kind,
                         std::span<const float> z, std::span<const float> alpha,
                         std::span<const float> beta, std::span<float> out) = 0;

  /// Fused residual-add + normalize: updates `h += residual` in place (the
  /// caller keeps `h` as the residual stream) and normalizes the sum into
  /// `out`, saving one full pass over the hidden vector versus add-then-
  /// normalize. The result is bit-identical to calling
  /// kernels::residual_add(h, residual) followed by normalize(h). Providers
  /// override this to fuse the add into their statistics pass.
  virtual void residual_add_normalize(std::size_t layer_index, std::size_t position,
                                      NormKind kind, std::span<float> h,
                                      std::span<const float> residual,
                                      std::span<const float> alpha,
                                      std::span<const float> beta,
                                      std::span<float> out);

  // --- Row-block entry points ------------------------------------------
  // One call per norm layer over a contiguous row-major (rows x d) block;
  // row r holds the vector of token position `start_position + r`. The
  // defaults loop the per-row virtuals, so per-row providers (e.g. the
  // accelerator timing model) work unchanged; batching providers override
  // them to hoist per-layer work (skip-plan lookup, predictor state, kernel
  // backend resolution, scratch sizing) out of the row loop. Results must be
  // bit-identical to the per-row loop for the same provider.

  /// Batched normalize: `x` and `out` are (rows x d) blocks, d = size/rows.
  virtual void normalize_rows(std::size_t layer_index, std::size_t start_position,
                              NormKind kind, std::size_t rows,
                              std::span<const float> x,
                              std::span<const float> alpha,
                              std::span<const float> beta, std::span<float> out);

  /// Batched fused residual-add + normalize: updates the whole `h` block in
  /// place (h[r] += residual[r]) and normalizes each summed row into `out`.
  virtual void residual_add_normalize_rows(std::size_t layer_index,
                                           std::size_t start_position,
                                           NormKind kind, std::size_t rows,
                                           std::span<float> h,
                                           std::span<const float> residual,
                                           std::span<const float> alpha,
                                           std::span<const float> beta,
                                           std::span<float> out);

 protected:
  /// Shared shape validation for row-block entry points (every override
  /// should call this): rows divides the block, out matches, alpha/beta are
  /// empty or exactly one row wide. Returns d.
  static std::size_t check_row_block(std::size_t rows, std::size_t numel,
                                     std::span<const float> alpha,
                                     std::span<const float> beta,
                                     std::size_t out_size);
};

/// Exact FP32 normalization with double-precision internals (the "Original"
/// rows of the paper's tables).
class ExactNormProvider final : public NormProvider {
 public:
  /// `eps` matches the framework epsilon added to the variance.
  /// `norm_threads` sizes the worker-local RowPartitionPool that splits large
  /// row blocks across threads (0 = HAAN_NORM_THREADS / hardware default,
  /// 1 = fully serial); results are bit-identical for any value.
  explicit ExactNormProvider(double eps = 1e-5, std::size_t norm_threads = 0);

  const char* trace_label() const override { return "norm/exact"; }

  void normalize(std::size_t layer_index, std::size_t position, NormKind kind,
                 std::span<const float> z, std::span<const float> alpha,
                 std::span<const float> beta, std::span<float> out) override;

  /// Single fused kernel call: residual add + statistics share one pass.
  void residual_add_normalize(std::size_t layer_index, std::size_t position,
                              NormKind kind, std::span<float> h,
                              std::span<const float> residual,
                              std::span<const float> alpha,
                              std::span<const float> beta,
                              std::span<float> out) override;

  /// Row-block overrides: one fused kernel call per layer (per-row stats
  /// resolved inside the backend), bit-identical to the per-row loop.
  void normalize_rows(std::size_t layer_index, std::size_t start_position,
                      NormKind kind, std::size_t rows, std::span<const float> x,
                      std::span<const float> alpha, std::span<const float> beta,
                      std::span<float> out) override;

  void residual_add_normalize_rows(std::size_t layer_index,
                                   std::size_t start_position, NormKind kind,
                                   std::size_t rows, std::span<float> h,
                                   std::span<const float> residual,
                                   std::span<const float> alpha,
                                   std::span<const float> beta,
                                   std::span<float> out) override;

 private:
  double eps_;
  RowPartitionPool pool_;  ///< worker-local row parallelism (lazy threads)
  kernels::RowNormWorkspace workspace_;  ///< chunk-0 scratch, reused
  /// One workspace per extra pool chunk so concurrent chunks never share
  /// scratch; sized on first partitioned call. The fused kernels resize these
  /// INSIDE pool chunks on pool threads, so a (pinned) pool thread's first
  /// touch places them node-local.
  std::vector<kernels::RowNormWorkspace> chunk_workspaces_;
};

}  // namespace haan::model
