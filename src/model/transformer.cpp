#include "model/transformer.hpp"

#include "common/assert.hpp"
#include "kernels/kernels.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace haan::model {

Transformer::Transformer(ModelConfig config)
    : config_(std::move(config)), weights_(make_weights(config_)) {}

void Transformer::set_norm_observer(NormInputObserver observer) {
  observer_ = std::move(observer);
}

tensor::Tensor Transformer::forward_hidden(std::span<const int> tokens,
                                           NormProvider& norm) const {
  const BatchLayout layout = BatchLayout::single(tokens.size());
  const std::span<const int> sequences[] = {tokens};
  return forward_hidden_batch(sequences, layout, norm);
}

tensor::Tensor Transformer::forward_hidden_batch(
    std::span<const std::span<const int>> sequences, const BatchLayout& layout,
    NormProvider& norm, RowPartitionPool* span_pool,
    std::span<KvCache* const> caches) const {
  HAAN_EXPECTS(!sequences.empty());
  HAAN_EXPECTS(layout.sequences() == sequences.size());
  const std::size_t d = config_.d_model;

  if (caches.empty()) {
    // One-shot forwards must start every sequence at position 0 — a nonzero
    // start without a cache would silently attend only within the chunk.
    for (std::size_t s = 0; s < layout.sequences(); ++s) {
      HAAN_EXPECTS(layout.span(s).start_position == 0);
    }
  } else {
    HAAN_EXPECTS(caches.size() == sequences.size());
    for (std::size_t s = 0; s < layout.sequences(); ++s) {
      if (caches[s] == nullptr) {
        HAAN_EXPECTS(layout.span(s).start_position == 0);
        continue;
      }
      HAAN_EXPECTS(caches[s]->valid() && caches[s]->d_model() == d);
      HAAN_EXPECTS(caches[s]->blocks() == config_.n_blocks);
      HAAN_EXPECTS(caches[s]->position() == layout.span(s).start_position);
    }
  }

  norm.begin_sequence();

  // Embedding fill: each sequence's rows land in its span of the packed
  // block; positions restart at the span's start_position per sequence.
  tensor::Tensor h(tensor::Shape{layout.total_rows(), d});
  {
    HAAN_TRACE_SPAN("embed", "model",
                    static_cast<std::uint32_t>(layout.total_rows()),
                    static_cast<std::uint32_t>(layout.sequences()));
    for (std::size_t s = 0; s < sequences.size(); ++s) {
      const std::span<const int> tokens = sequences[s];
      const SequenceSpan& span = layout.span(s);
      HAAN_EXPECTS(!tokens.empty());
      HAAN_EXPECTS(tokens.size() == span.rows);
      HAAN_EXPECTS(span.start_position + tokens.size() <= config_.max_seq_len);
      for (std::size_t t = 0; t < tokens.size(); ++t) {
        const int token = tokens[t];
        HAAN_EXPECTS(token >= 0 &&
                     static_cast<std::size_t>(token) < config_.vocab_size);
        // The embedding is stored input-major: a token's vector is column
        // `token` of the (d_model x vocab) tensor.
        const float* emb =
            weights_.embedding.data().data() + static_cast<std::size_t>(token);
        const auto pos = weights_.pos_embedding.row(span.start_position + t);
        const auto row = h.row(span.row_begin + t);
        for (std::size_t c = 0; c < d; ++c) {
          row[c] = emb[c * config_.vocab_size] + pos[c];
        }
      }
    }
  }

  // `pending` carries each sub-layer output to the next norm layer, where the
  // residual add fuses with the statistics pass (one fewer pass over the
  // hidden vector per norm layer; bit-identical to add-then-normalize). Every
  // norm layer is executed as ONE batched row-block provider call over the
  // whole packed block — all sequences at once, never a per-token or
  // per-sequence loop (see apply_residual_norm_layer).
  tensor::Tensor pending;
  for (std::size_t b = 0; b < config_.n_blocks; ++b) {
    run_block(h, pending, layout, weights_.blocks[b], config_, b, norm,
              observer_, span_pool, caches);
  }

  if (config_.final_norm) {
    h = apply_residual_norm_layer(h, pending, 2 * config_.n_blocks,
                                  config_.norm_kind, weights_.final_alpha,
                                  weights_.final_beta, norm, observer_);
  } else if (pending.numel() != 0) {
    tensor::add_inplace(h, pending);
  }

  // Commit this step: every block appended exactly span.rows K/V rows.
  for (std::size_t s = 0; s < caches.size(); ++s) {
    if (caches[s] != nullptr) caches[s]->commit(layout.span(s).rows);
  }
  return h;
}

KvCache Transformer::make_kv_cache() const {
  return KvCache(config_.n_blocks, config_.d_model);
}

std::vector<float> Transformer::pooled_features(std::span<const int> tokens,
                                                NormProvider& norm) const {
  const tensor::Tensor h = forward_hidden(tokens, norm);
  return tensor::mean_rows(h);
}

std::vector<float> Transformer::last_logits(std::span<const int> tokens,
                                            NormProvider& norm) const {
  const tensor::Tensor h = forward_hidden(tokens, norm);
  return logits_for_hidden_row(h.row(h.shape().dim(0) - 1));
}

std::vector<float> Transformer::logits_for_hidden_row(
    std::span<const float> row) const {
  HAAN_EXPECTS(row.size() == config_.d_model);
  // One 1 x vocab product against the tied embedding, which is stored
  // input-major like every projection: each logit is the same ascending
  // double dot product tensor::dot computes, rounded to float.
  std::vector<float> logits(config_.vocab_size);
  kernels::active().linear(row.data(), 1, config_.d_model,
                           weights_.embedding.data().data(), config_.vocab_size,
                           nullptr, logits.data());
  return logits;
}

}  // namespace haan::model
