#include "model/attention.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace haan::model {

namespace {

/// Causal attention core shared by the one-shot and cached paths: query row i
/// of `q` sits at absolute position start_position + i and attends over the
/// key/value rows [0, start_position + i] of `k` / `v` (row-major, d_model
/// wide). One kernel call per head runs the scores, the softmax and the P·V
/// of every row in the kernel table's exact order, so every value depends
/// only on the row's own prefix, never on how many rows share the call.
tensor::Tensor causal_context(const tensor::Tensor& q, std::span<const float> k,
                              std::span<const float> v,
                              std::size_t start_position, std::size_t n_heads) {
  const std::size_t rows = q.shape().dim(0);
  const std::size_t d_model = q.shape().dim(1);
  const std::size_t d_head = d_model / n_heads;
  const std::size_t keys = start_position + rows;
  HAAN_EXPECTS(k.size() == keys * d_model && v.size() == keys * d_model);

  const kernels::KernelTable& table = kernels::active();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
  tensor::Tensor context(tensor::Shape{rows, d_model});
  for (std::size_t h = 0; h < n_heads; ++h) {
    const std::size_t off = h * d_head;
    table.causal_attention(q.data().data() + off, rows, k.data() + off,
                           v.data() + off, d_model, d_head, start_position,
                           scale, context.data().data() + off);
  }
  return context;
}

}  // namespace

tensor::Tensor multi_head_attention(const tensor::Tensor& x, const BlockWeights& block,
                                    std::size_t n_heads) {
  HAAN_EXPECTS(x.shape().rank() == 2);
  HAAN_EXPECTS(x.shape().dim(1) % n_heads == 0);

  const tensor::Tensor q = tensor::linear_input_major(x, block.wq, {});
  const tensor::Tensor k = tensor::linear_input_major(x, block.wk, {});
  const tensor::Tensor v = tensor::linear_input_major(x, block.wv, {});
  const tensor::Tensor context =
      causal_context(q, k.data(), v.data(), /*start_position=*/0, n_heads);
  return tensor::linear_input_major(context, block.wo, {});
}

tensor::Tensor multi_head_attention_cached(const tensor::Tensor& x_new,
                                           const BlockWeights& block,
                                           std::size_t n_heads, KvCache& cache,
                                           std::size_t block_index,
                                           std::size_t start_position) {
  HAAN_EXPECTS(x_new.shape().rank() == 2);
  const std::size_t d_model = x_new.shape().dim(1);
  HAAN_EXPECTS(d_model % n_heads == 0);
  HAAN_EXPECTS(cache.valid() && cache.d_model() == d_model);
  HAAN_EXPECTS(block_index < cache.blocks());
  HAAN_EXPECTS(cache.rows(block_index) == start_position);

  const tensor::Tensor q = tensor::linear_input_major(x_new, block.wq, {});
  {
    const tensor::Tensor k_new =
        tensor::linear_input_major(x_new, block.wk, {});
    const tensor::Tensor v_new =
        tensor::linear_input_major(x_new, block.wv, {});
    cache.append(block_index, k_new.data(), v_new.data());
  }
  const tensor::Tensor context =
      causal_context(q, cache.k(block_index), cache.v(block_index),
                     start_position, n_heads);
  return tensor::linear_input_major(context, block.wo, {});
}

}  // namespace haan::model
