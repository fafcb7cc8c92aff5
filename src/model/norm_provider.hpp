// The normalization seam: the transformer makes one row-block NormProvider
// call per normalization layer, identified by its global execution-order
// index, over all the rows of the forward. The exact provider lives here; the
// HAAN provider (skipping + subsampling + quantization) lives in `haan::core`
// and the accelerator model in `haan::accel`, behind the same interface.
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

  // --- Row-block entry points (the one execution path) ---------------------
  // One call per norm layer over a contiguous row-major (rows x d) block;
  // row r holds the vector of token position `start_position + r`. Providers
  // implement normalize_rows, and may override residual_add_normalize_rows
  // to fuse the residual add into their statistics pass. Per-layer work
  // (skip-plan lookup, predictor state, kernel backend resolution, scratch
  // sizing) is resolved once per call, never per row.

  /// Normalizes each row of the (rows x d) block `x` into `out` (same size,
  /// d = size/rows) with affine parameters alpha/beta (each empty for
  /// identity, or one row wide). The HAAN ISD predictor anchors per position.
  virtual void normalize_rows(std::size_t layer_index, std::size_t start_position,
                              NormKind kind, std::size_t rows,
                              std::span<const float> x,
                              std::span<const float> alpha,
                              std::span<const float> beta,
                              std::span<float> out) = 0;

  /// Residual add + normalize: updates the whole `h` block in place
  /// (h[r] += residual[r]; the caller keeps `h` as the residual stream) and
  /// normalizes each summed row into `out`. Results must be bit-identical to
  /// kernels::residual_add(h, residual) followed by normalize_rows(h), which
  /// is what this default does.
  virtual void residual_add_normalize_rows(std::size_t layer_index,
                                           std::size_t start_position,
                                           NormKind kind, std::size_t rows,
                                           std::span<float> h,
                                           std::span<const float> residual,
                                           std::span<const float> alpha,
                                           std::span<const float> beta,
                                           std::span<float> out);

  // --- One-vector conveniences ----------------------------------------------
  // A single vector at token `position` is the row block with rows = 1 and
  // start_position = position. Providers do not override these; they stay
  // virtual so a wrapping provider can forward them unchanged.

  virtual void normalize(std::size_t layer_index, std::size_t position,
                         NormKind kind, std::span<const float> z,
                         std::span<const float> alpha,
                         std::span<const float> beta, std::span<float> out);

  virtual void residual_add_normalize(std::size_t layer_index,
                                      std::size_t position, NormKind kind,
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
  /// row blocks across threads (0 = threads_per_worker(1), 1 = fully
  /// serial); results are bit-identical for any value.
  explicit ExactNormProvider(double eps = 1e-5, std::size_t norm_threads = 0);

  const char* trace_label() const override { return "norm/exact"; }

  /// One row-block kernel call per layer (kernels::rmsnorm_rows /
  /// layernorm_rows, or their residual-add forms), split across the pool.
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
  /// Runs fn(workspace, r0, nr) over the pool's row chunks of a (rows x d)
  /// block, each chunk with its own workspace.
  template <class ChunkFn>
  void for_row_chunks(std::size_t rows, std::size_t d, ChunkFn&& fn);

  double eps_;
  RowPartitionPool pool_;  ///< worker-local row parallelism (lazy threads)
  kernels::RowNormWorkspace workspace_;  ///< chunk-0 scratch, reused
  /// One workspace per extra pool chunk so concurrent chunks never share
  /// scratch; sized on first partitioned call.
  std::vector<kernels::RowNormWorkspace> chunk_workspaces_;
};

}  // namespace haan::model
