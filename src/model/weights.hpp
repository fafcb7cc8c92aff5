// Synthetic weight generation. Weights are Gaussian with per-matrix scales
// chosen so each block's branch output variance is `gain` times its input
// variance; stacking blocks then grows the residual stream geometrically,
// which is exactly the mechanism behind the paper's log-linear ISD trend
// (Fig 2). Norm affine parameters are near-identity with mild jitter, as in
// trained LLMs.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "model/config.hpp"
#include "tensor/tensor.hpp"

namespace haan::model {

/// Per-block parameters.
struct BlockWeights {
  // Every projection W (out x in) is stored input-major, as its transpose
  // W^T: an (in x out) row-major tensor, the layout
  // tensor::linear_input_major and KernelTable::linear read, so a decode step
  // streams each reduction step's outputs contiguously with no per-call
  // repacking. Attention projections: each (d_model x d_model).
  tensor::Tensor wq, wk, wv, wo;
  // MLP: w_up (d_model x d_ff), w_gate (d_model x d_ff, gated models only),
  // w_down (d_ff x d_model).
  tensor::Tensor w_up, w_gate, w_down;
  // Normalization affine parameters, one pair per norm layer in the block.
  std::vector<float> norm1_alpha, norm1_beta;
  std::vector<float> norm2_alpha, norm2_beta;
};

/// Whole-model parameters.
struct ModelWeights {
  /// Token embedding, tied to the logits projection and stored input-major
  /// like the projections: (d_model x vocab), token t's vector is column t.
  tensor::Tensor embedding;
  tensor::Tensor pos_embedding;   ///< (max_seq_len x d_model)
  std::vector<BlockWeights> blocks;
  std::vector<float> final_alpha, final_beta;  ///< final norm (may be empty)
};

/// Deterministically generates weights for `config` (seeded by config.seed).
ModelWeights make_weights(const ModelConfig& config);

}  // namespace haan::model
