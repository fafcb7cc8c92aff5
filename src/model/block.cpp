#include "model/block.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "kernels/kernels.hpp"
#include "model/attention.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace haan::model {

tensor::Tensor apply_norm_layer(const tensor::Tensor& x, std::size_t layer_index,
                                NormKind kind, std::span<const float> alpha,
                                std::span<const float> beta, NormProvider& norm,
                                const NormInputObserver& observer) {
  HAAN_EXPECTS(x.shape().rank() == 2);
  tensor::Tensor out(x.shape());
  const std::size_t rows = x.shape().dim(0);
  if (observer) {
    // The observer sees each row's norm input (x itself, unmodified) before
    // the single batched provider call.
    for (std::size_t r = 0; r < rows; ++r) observer(layer_index, r, x.row(r));
  }
  // Span name is the provider's label ("norm/exact", "norm/haan", ...), so a
  // trace shows which normalization path served each layer.
  HAAN_TRACE_SPAN(norm.trace_label(), "model",
                  static_cast<std::uint32_t>(layer_index),
                  static_cast<std::uint32_t>(rows));
  norm.normalize_rows(layer_index, /*start_position=*/0, kind, rows, x.data(),
                      alpha, beta, out.data());
  return out;
}

tensor::Tensor apply_residual_norm_layer(tensor::Tensor& x,
                                         const tensor::Tensor& residual,
                                         std::size_t layer_index, NormKind kind,
                                         std::span<const float> alpha,
                                         std::span<const float> beta,
                                         NormProvider& norm,
                                         const NormInputObserver& observer) {
  if (residual.numel() == 0) {
    return apply_norm_layer(x, layer_index, kind, alpha, beta, norm, observer);
  }
  HAAN_EXPECTS(x.shape().rank() == 2);
  HAAN_EXPECTS(residual.shape() == x.shape());
  if (observer) {
    // The observer must see the norm *input* (the sum), so materialize the
    // whole block's add once and route through the same batched normalize
    // call as the observer-free path; values are bit-identical to the fused
    // path (the float adds are elementwise either way).
    kernels::residual_add(x.data(), residual.data());
    return apply_norm_layer(x, layer_index, kind, alpha, beta, norm, observer);
  }
  tensor::Tensor out(x.shape());
  const std::size_t rows = x.shape().dim(0);
  HAAN_TRACE_SPAN(norm.trace_label(), "model",
                  static_cast<std::uint32_t>(layer_index),
                  static_cast<std::uint32_t>(rows));
  norm.residual_add_normalize_rows(layer_index, /*start_position=*/0, kind,
                                   rows, x.data(), residual.data(), alpha, beta,
                                   out.data());
  return out;
}

namespace {

tensor::Tensor run_mlp(const tensor::Tensor& x, const BlockWeights& block,
                       const ModelConfig& config) {
  tensor::Tensor up = tensor::linear_input_major(x, block.w_up, {});
  if (config.gated_mlp) {
    tensor::Tensor gate = tensor::linear_input_major(x, block.w_gate, {});
    tensor::silu_inplace(gate);
    up = tensor::hadamard(up, gate);
  } else {
    tensor::gelu_inplace(up);
  }
  return tensor::linear_input_major(up, block.w_down, {});
}

/// Copies span rows out of the packed block, applies `fn` (sub-block in, same
/// shape out), and writes the result back into the span's rows of `out`.
template <typename Fn>
void apply_to_span(const tensor::Tensor& x, const BatchLayout& layout,
                   std::size_t s, std::size_t d, tensor::Tensor& out,
                   const Fn& fn) {
  const SequenceSpan& span = layout.span(s);
  tensor::Tensor sub(tensor::Shape{span.rows, d});
  std::copy_n(x.data().data() + span.row_begin * d, span.rows * d,
              sub.data().data());
  const tensor::Tensor result = fn(sub);
  std::copy_n(result.data().data(), span.rows * d,
              out.data().data() + span.row_begin * d);
}

/// Runs `fn` over every span of the layout, span-parallel when a pool with
/// more than one thread is available. Spans write disjoint row ranges of
/// `out`, so concurrent execution is bit-identical to the serial loop.
template <typename Fn>
tensor::Tensor map_spans(const tensor::Tensor& x, const BatchLayout& layout,
                         RowPartitionPool* pool, const Fn& fn) {
  HAAN_EXPECTS(x.shape().dim(0) == layout.total_rows());
  const std::size_t d = x.shape().dim(1);
  tensor::Tensor out(x.shape());
  if (pool != nullptr && pool->threads() > 1 && layout.sequences() > 1) {
    pool->for_rows(layout.sequences(), /*min_rows=*/1,
                   [&](std::size_t, std::size_t s0, std::size_t ns) {
      for (std::size_t s = s0; s < s0 + ns; ++s) {
        apply_to_span(x, layout, s, d, out, fn);
      }
    });
  } else {
    for (std::size_t s = 0; s < layout.sequences(); ++s) {
      apply_to_span(x, layout, s, d, out, fn);
    }
  }
  return out;
}

/// Causal attention over a packed block (packed_attention): one Q/K/V and one
/// output projection over the whole pack, the kernel per span and head.
tensor::Tensor run_attention(const tensor::Tensor& x, const BatchLayout& layout,
                             const BlockWeights& block, const ModelConfig& config,
                             std::size_t block_index,
                             std::span<KvCache* const> caches,
                             RowPartitionPool* span_pool) {
  HAAN_TRACE_SPAN("attn", "model", static_cast<std::uint32_t>(x.shape().dim(0)),
                  static_cast<std::uint32_t>(layout.sequences()));
  return packed_attention(x, layout, block, config.n_heads, caches,
                          block_index, span_pool);
}

/// MLP over a packed block. The MLP is row-wise (linear + activation), so the
/// whole packed block runs in one call; with a span pool, spans run
/// concurrently instead — bit-identical either way because every op touches
/// one row at a time.
tensor::Tensor run_mlp_packed(const tensor::Tensor& x, const BatchLayout& layout,
                              const BlockWeights& block, const ModelConfig& config,
                              RowPartitionPool* span_pool) {
  HAAN_TRACE_SPAN("mlp", "model", static_cast<std::uint32_t>(x.shape().dim(0)),
                  static_cast<std::uint32_t>(layout.sequences()));
  if (span_pool == nullptr || span_pool->threads() <= 1 ||
      layout.sequences() == 1) {
    return run_mlp(x, block, config);
  }
  return map_spans(x, layout, span_pool, [&](const tensor::Tensor& sub) {
    return run_mlp(sub, block, config);
  });
}

}  // namespace

void run_block(tensor::Tensor& h, tensor::Tensor& pending,
               const BatchLayout& layout, const BlockWeights& block,
               const ModelConfig& config, std::size_t block_index,
               NormProvider& norm, const NormInputObserver& observer,
               RowPartitionPool* span_pool, std::span<KvCache* const> caches) {
  const std::size_t norm1 = 2 * block_index;
  const std::size_t norm2 = 2 * block_index + 1;

  if (config.placement == NormPlacement::kPreNorm) {
    // The previous sub-layer's output (attention/MLP of the block before, or
    // nothing for block 0) folds into this norm's fused residual add.
    tensor::Tensor normed =
        apply_residual_norm_layer(h, pending, norm1, config.norm_kind,
                                  block.norm1_alpha, block.norm1_beta, norm,
                                  observer);
    tensor::Tensor attn = run_attention(normed, layout, block, config,
                                        block_index, caches, span_pool);

    normed = apply_residual_norm_layer(h, attn, norm2, config.norm_kind,
                                       block.norm2_alpha, block.norm2_beta,
                                       norm, observer);
    // Defer the MLP residual add to the next norm layer (or the caller).
    pending = run_mlp_packed(normed, layout, block, config, span_pool);
  } else {
    // Post-norm: residual add first, then normalize the sum. Post-norm blocks
    // never leave a deferred residual, but fold one in if present.
    if (pending.numel() != 0) {
      tensor::add_inplace(h, pending);
      pending = tensor::Tensor();
    }
    tensor::Tensor attn =
        run_attention(h, layout, block, config, block_index, caches, span_pool);
    h = apply_residual_norm_layer(attn, h, norm1, config.norm_kind,
                                  block.norm1_alpha, block.norm1_beta, norm,
                                  observer);

    tensor::Tensor mlp = run_mlp_packed(h, layout, block, config, span_pool);
    h = apply_residual_norm_layer(mlp, h, norm2, config.norm_kind,
                                  block.norm2_alpha, block.norm2_beta, norm,
                                  observer);
  }
}

}  // namespace haan::model
