#include "model/attention.hpp"

#include <cmath>
#include <vector>

#include "common/assert.hpp"
#include "kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace haan::model {

tensor::Tensor packed_attention(const tensor::Tensor& x,
                                const BatchLayout& layout,
                                const BlockWeights& block, std::size_t n_heads,
                                std::span<KvCache* const> caches,
                                std::size_t block_index,
                                RowPartitionPool* span_pool) {
  HAAN_EXPECTS(x.shape().rank() == 2);
  HAAN_EXPECTS(x.shape().dim(0) == layout.total_rows());
  const std::size_t d_model = x.shape().dim(1);
  HAAN_EXPECTS(d_model % n_heads == 0);
  HAAN_EXPECTS(caches.empty() || caches.size() == layout.sequences());
  const std::size_t d_head = d_model / n_heads;

  const tensor::Tensor q = tensor::linear_input_major(x, block.wq, {});
  const tensor::Tensor k = tensor::linear_input_major(x, block.wk, {});
  const tensor::Tensor v = tensor::linear_input_major(x, block.wv, {});
  tensor::Tensor context(x.shape());

  const kernels::KernelTable& table = kernels::active();
  const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
  const auto attend_span = [&](std::size_t s) {
    const SequenceSpan& span = layout.span(s);
    const std::size_t begin = span.row_begin * d_model;
    const std::size_t count = span.rows * d_model;
    KvCache* cache = caches.empty() ? nullptr : caches[s];
    const float* kt = nullptr;
    std::size_t ldk = 0;
    const float* v_rows = nullptr;
    if (cache != nullptr) {
      HAAN_EXPECTS(cache->valid() && cache->d_model() == d_model);
      HAAN_EXPECTS(block_index < cache->blocks());
      HAAN_EXPECTS(cache->rows(block_index) == span.start_position);
      cache->append(block_index, k.data().subspan(begin, count),
                    v.data().subspan(begin, count));
      kt = cache->kt(block_index);
      ldk = cache->ldk(block_index);
      v_rows = cache->v(block_index).data();
    } else {
      HAAN_EXPECTS(span.start_position == 0);
      thread_local std::vector<float> k_transposed;
      k_transposed.resize(count);
      transpose_keys(k.data().data() + begin, span.rows, d_model,
                     k_transposed.data(), span.rows);
      kt = k_transposed.data();
      ldk = span.rows;
      v_rows = v.data().data() + begin;
    }
    for (std::size_t h = 0; h < n_heads; ++h) {
      const std::size_t off = h * d_head;
      table.causal_attention(q.data().data() + begin + off, span.rows,
                             kt + off * ldk, ldk, v_rows + off, d_model,
                             d_head, span.start_position, scale,
                             context.data().data() + begin + off);
    }
  };
  if (span_pool != nullptr && span_pool->threads() > 1 &&
      layout.sequences() > 1) {
    span_pool->for_rows(layout.sequences(), /*min_rows=*/1,
                        [&](std::size_t, std::size_t s0, std::size_t ns) {
      for (std::size_t s = s0; s < s0 + ns; ++s) attend_span(s);
    });
  } else {
    for (std::size_t s = 0; s < layout.sequences(); ++s) attend_span(s);
  }
  return tensor::linear_input_major(context, block.wo, {});
}

}  // namespace haan::model
