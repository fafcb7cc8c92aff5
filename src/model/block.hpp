// One transformer block: norm -> attention -> residual add, then
// norm -> MLP -> residual add (pre-norm), or the post-norm ordering.
//
// Blocks execute over a PACKED hidden block: `h` holds the concatenated rows
// of every sequence in the batch (a BatchLayout describes the spans; the
// per-request path uses a degenerate single-span layout). Attention — the only
// sub-layer with cross-row state — runs its projections over the whole packed
// block and its causal kernel per sequence span; the MLP, residual adds and
// normalization layers are row-wise and run over the whole packed block, so
// every norm layer is ONE row-block provider call covering all sequences in
// the batch.
#pragma once

#include <functional>
#include <span>

#include "model/batch_layout.hpp"
#include "model/kv_cache.hpp"
#include "model/norm_provider.hpp"
#include "model/row_partition.hpp"
#include "model/weights.hpp"
#include "tensor/tensor.hpp"

namespace haan::model {

/// Observer invoked with every normalization-layer *input* vector:
/// (global norm-layer index, packed row index, the vector). Used to collect
/// the ISD traces of §III-A without perturbing execution. For single-sequence
/// forwards the packed row index IS the token position; for mega-batch
/// forwards map it back through the BatchLayout's spans.
using NormInputObserver =
    std::function<void(std::size_t layer, std::size_t position, std::span<const float> z)>;

/// Applies `norm` over `x` for global norm layer `layer_index` with ONE
/// batched provider call (normalize_rows) covering every packed row, after
/// notifying `observer` (if set) with each input row. Row r is packed row r
/// (= token position r for a single sequence).
tensor::Tensor apply_norm_layer(const tensor::Tensor& x, std::size_t layer_index,
                                NormKind kind, std::span<const float> alpha,
                                std::span<const float> beta, NormProvider& norm,
                                const NormInputObserver& observer);

/// Fused residual-add + norm over the whole packed block: updates
/// `x += residual` in place and normalizes the sums via the provider's batched
/// fused entry point (residual_add_normalize_rows — one call per norm layer,
/// one fewer pass over each hidden vector than add_inplace + apply_norm_layer,
/// with bit-identical results). With an observer the add is materialized once
/// for the whole block and the same batched normalize_rows path runs, so the
/// observer sees each row's norm input bit-identically. An empty `residual`
/// degrades to apply_norm_layer.
tensor::Tensor apply_residual_norm_layer(tensor::Tensor& x,
                                         const tensor::Tensor& residual,
                                         std::size_t layer_index, NormKind kind,
                                         std::span<const float> alpha,
                                         std::span<const float> beta,
                                         NormProvider& norm,
                                         const NormInputObserver& observer);

/// Runs block `block_index` over the packed hidden states `h`
/// (layout.total_rows() x d_model) in place. Norm layers get global indices
/// 2*block_index and 2*block_index + 1 and execute as one row-block call over
/// the whole packed block; attention runs causally per sequence span.
///
/// `span_pool` (optional) executes the per-span attention kernels and the MLP
/// sub-layer of a multi-sequence packing span-parallel on the worker-local
/// pool — sequences are independent given the normed input, so results are
/// bit-identical to the serial span loop for any thread count. Cross-request
/// packing is what makes this profitable: a single request rarely carries
/// enough rows to amortize intra-forward threading, a packed scheduler batch
/// does.
///
/// `pending` threads the deferred residual between norm layers: on entry it
/// holds a sub-layer output not yet added to `h` (empty when none), and the
/// block folds it into its first norm's fused add. On exit it holds this
/// block's trailing MLP output (pre-norm placement) or is empty (post-norm,
/// which normalizes inside the block). The caller must fold a non-empty
/// `pending` into `h` after the last block (the final norm does it fused).
///
/// `caches` (optional; empty, or one entry per span) switches attention to the
/// incremental path: span s's rows are NEW rows continuing at
/// span.start_position, attending over caches[s]'s prefix. A null entry keeps
/// the plain one-shot attention for that span (its start_position must be 0).
///
/// Norm providers still see start_position = 0, i.e. HAAN predictor positions
/// are PACKED ROW indices, exactly as in one-shot packed forwards. This is
/// deliberate: anchors live and die within a single forward call (the
/// predictor resets per forward), so any unique per-row numbering preserves
/// bit-identity — whereas absolute token positions would collide between
/// different sessions decoding at the same depth in one mixed pack,
/// overwriting each other's anchors and breaking the guarantee.
void run_block(tensor::Tensor& h, tensor::Tensor& pending,
               const BatchLayout& layout, const BlockWeights& block,
               const ModelConfig& config, std::size_t block_index,
               NormProvider& norm, const NormInputObserver& observer,
               RowPartitionPool* span_pool = nullptr,
               std::span<KvCache* const> caches = {});

}  // namespace haan::model
