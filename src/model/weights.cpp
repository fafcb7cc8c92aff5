#include "model/weights.hpp"

#include <cmath>

#include "common/assert.hpp"

namespace haan::model {

namespace {

/// A Gaussian (rows x cols) matrix stored input-major, as its (cols x rows)
/// transpose. Values are drawn in (rows x cols) row-major order, as
/// Tensor::randn would draw the matrix itself, so the layout changes no value.
tensor::Tensor transposed_gaussian(std::size_t rows, std::size_t cols,
                                   double stddev, common::Rng& rng) {
  tensor::Tensor t(tensor::Shape{cols, rows});
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      t.at(c, r) = static_cast<float>(rng.gaussian(0.0, stddev));
    }
  }
  return t;
}

/// Gaussian (out x in) projection with std 1/sqrt(fan_in), variance
/// preserving, stored input-major as (in x out).
tensor::Tensor projection(std::size_t out, std::size_t in, common::Rng& rng) {
  return transposed_gaussian(out, in,
                             1.0 / std::sqrt(static_cast<double>(in)), rng);
}

/// Norm affine gain vector with the requested RMS and ±10% per-channel jitter.
std::vector<float> gain_vector(std::size_t n, double rms, common::Rng& rng) {
  std::vector<float> alpha(n);
  for (auto& a : alpha) {
    a = static_cast<float>(rms * rng.uniform(0.9, 1.1));
  }
  return alpha;
}

std::vector<float> bias_vector(std::size_t n, double std, common::Rng& rng) {
  std::vector<float> beta(n);
  for (auto& b : beta) b = static_cast<float>(rng.gaussian(0.0, std));
  return beta;
}

// Empirical attenuation of a unit-gain branch (weights scaled 1/sqrt(fan_in)):
// how much variance survives attention (softmax averaging shrinks it) and the
// MLP nonlinearities. Checked by tests/model/test_isd_trend; only the
// *rough* magnitude matters — errors show up as noise around the log-linear
// ISD trend, which the paper's own Fig 2 exhibits too.
constexpr double kAttnAttenuation = 0.35;
constexpr double kGeluAttenuation = 0.35;
constexpr double kSiluGateAttenuation = 0.25;

}  // namespace

ModelWeights make_weights(const ModelConfig& config) {
  HAAN_EXPECTS(config.d_model % config.n_heads == 0);
  common::Rng rng(config.seed);

  ModelWeights weights;
  weights.embedding =
      transposed_gaussian(config.vocab_size, config.d_model, 1.0, rng);
  // Token embedding norms are heterogeneous in trained LLMs (rare tokens sit
  // far from the origin). This drives the per-token spread — and the
  // token-dependent early-layer ISD slopes — visible in the paper's Fig 2,
  // and is what makes skipping early layers fail so hard in Table II: a
  // global decay coefficient cannot fit token-dependent early dynamics.
  for (std::size_t v = 0; v < config.vocab_size; ++v) {
    const float scale = static_cast<float>(std::exp(rng.gaussian(0.0, 0.4)));
    for (std::size_t c = 0; c < config.d_model; ++c) {
      weights.embedding.at(c, v) *= scale;
    }
  }
  weights.pos_embedding = tensor::Tensor::randn(
      tensor::Shape{config.max_seq_len, config.d_model}, rng, 0.0, 0.1);

  // Expected residual-stream variance schedule. Each branch (attention, MLP)
  // contributes gain/2; the norm gain alpha is sized so the branch's output
  // variance tracks the current stream variance — the mechanism that makes
  // stream growth geometric and hence log-ISD linear in depth (paper §III-A).
  double stream_var = 1.0;
  weights.blocks.reserve(config.n_blocks);
  for (std::size_t b = 0; b < config.n_blocks; ++b) {
    const double branch_gain = config.block_gain(b) / 2.0;

    BlockWeights block;
    block.wq = projection(config.d_model, config.d_model, rng);
    block.wk = projection(config.d_model, config.d_model, rng);
    block.wv = projection(config.d_model, config.d_model, rng);
    block.wo = projection(config.d_model, config.d_model, rng);
    block.w_up = projection(config.d_ff, config.d_model, rng);
    if (config.gated_mlp) {
      block.w_gate = projection(config.d_ff, config.d_model, rng);
    }
    block.w_down = projection(config.d_model, config.d_ff, rng);

    const double attn_alpha_rms =
        std::sqrt(branch_gain * stream_var / kAttnAttenuation);
    block.norm1_alpha = gain_vector(config.d_model, attn_alpha_rms, rng);
    stream_var *= 1.0 + branch_gain;

    const double mlp_attenuation =
        config.gated_mlp ? kSiluGateAttenuation : kGeluAttenuation;
    const double mlp_alpha_rms =
        std::sqrt(branch_gain * stream_var / mlp_attenuation);
    block.norm2_alpha = gain_vector(config.d_model, mlp_alpha_rms, rng);
    stream_var *= 1.0 + branch_gain;

    if (config.norm_kind == NormKind::kLayerNorm) {
      block.norm1_beta = bias_vector(config.d_model, 0.02, rng);
      block.norm2_beta = bias_vector(config.d_model, 0.02, rng);
    }
    weights.blocks.push_back(std::move(block));
  }

  if (config.final_norm) {
    weights.final_alpha = gain_vector(config.d_model, 1.0, rng);
    if (config.norm_kind == NormKind::kLayerNorm) {
      weights.final_beta = bias_vector(config.d_model, 0.02, rng);
    }
  }
  return weights;
}

}  // namespace haan::model
