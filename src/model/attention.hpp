// Multi-head causal self-attention forward pass for a single sequence.
#pragma once

#include "model/kv_cache.hpp"
#include "model/weights.hpp"
#include "tensor/tensor.hpp"

namespace haan::model {

/// Computes causal MHA over `x` (L x d_model) with the block's projections.
/// Returns the attended output after the output projection (L x d_model).
tensor::Tensor multi_head_attention(const tensor::Tensor& x, const BlockWeights& block,
                                    std::size_t n_heads);

/// Incremental causal MHA: `x_new` holds only the sequence's NEW rows, whose
/// first row sits at absolute token position `start_position`. The K/V
/// projections of the new rows are appended to `cache` (layer `block_index`),
/// and each new row attends over the full cached prefix plus itself.
///
/// Bit-identity contract: for any split of a sequence into steps, the outputs
/// equal the corresponding rows of multi_head_attention() over the whole
/// sequence. Both paths run the kernel table's causal_attention, whose every
/// row depends only on its own prefix (exact-order scores, stable softmax,
/// ascending-j context accumulation that skips exact zeros), and cached K/V
/// rows are the same float bits the one-shot path recomputes.
///
/// Requires cache.rows(block_index) == start_position (caller feeds steps in
/// order; KvCache::commit() advances the committed position per step).
tensor::Tensor multi_head_attention_cached(const tensor::Tensor& x_new,
                                           const BlockWeights& block,
                                           std::size_t n_heads, KvCache& cache,
                                           std::size_t block_index,
                                           std::size_t start_position);

}  // namespace haan::model
