// Multi-head causal self-attention forward pass over a packed block of
// sequences.
#pragma once

#include <span>

#include "model/batch_layout.hpp"
#include "model/kv_cache.hpp"
#include "model/row_partition.hpp"
#include "model/weights.hpp"
#include "tensor/tensor.hpp"

namespace haan::model {

/// Causal MHA over the packed rows `x` (layout.total_rows() x d_model) with
/// the block's projections; returns the attended output after the output
/// projection, same shape. Every sequence span attends only within itself.
/// The Q/K/V projections and the output projection each run once over the
/// whole pack; per span, every head runs the kernel table's causal_attention
/// over the span's keys, stored transposed.
///
/// `caches` (empty, or one entry per span) switches span s to the
/// incremental path: its rows are NEW rows whose first sits at absolute
/// position span(s).start_position, their K/V rows are appended to
/// caches[s] (layer `block_index`), and each row attends over the cached
/// prefix plus itself. Requires caches[s]->rows(block_index) ==
/// start_position (steps are fed in order; KvCache::commit() advances the
/// committed position per step). A null entry, or no caches at all, keeps
/// the one-shot path for that span, whose start_position must be 0; its K
/// rows are transposed into per-thread scratch.
///
/// With `span_pool` of more than one thread, the spans' appends and kernel
/// calls run in parallel; each touches only its own cache and output rows.
///
/// Bit-identity contract: for any split of a sequence into steps and any
/// packing, the outputs equal the corresponding rows of a one-shot forward
/// over the whole sequence. The linears are row-wise under the exact-order
/// contract, causal_attention's every row depends only on its own prefix
/// (exact-order scores, stable softmax, ascending-j context accumulation that
/// skips exact zeros), and cached K/V values are the same float bits the
/// one-shot path recomputes.
tensor::Tensor packed_attention(const tensor::Tensor& x,
                                const BatchLayout& layout,
                                const BlockWeights& block, std::size_t n_heads,
                                std::span<KvCache* const> caches = {},
                                std::size_t block_index = 0,
                                RowPartitionPool* span_pool = nullptr);

}  // namespace haan::model
