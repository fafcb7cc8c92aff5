#include <gtest/gtest.h>

#include <cmath>

#include "model/attention.hpp"
#include "model/transformer.hpp"
#include "tensor/norm_ref.hpp"
#include "tensor/ops.hpp"

namespace haan::model {
namespace {

std::vector<int> test_tokens(const ModelConfig& config, std::size_t n,
                             std::uint64_t seed = 5) {
  common::Rng rng(seed);
  std::vector<int> tokens(n);
  for (auto& t : tokens) t = static_cast<int>(rng.uniform_index(config.vocab_size));
  return tokens;
}

TEST(Weights, DeterministicFromSeed) {
  const auto config = tiny_test_model();
  const ModelWeights a = make_weights(config);
  const ModelWeights b = make_weights(config);
  EXPECT_EQ(a.embedding.data()[0], b.embedding.data()[0]);
  EXPECT_EQ(a.blocks[0].wq.data()[10], b.blocks[0].wq.data()[10]);
  EXPECT_EQ(a.blocks[2].norm1_alpha[3], b.blocks[2].norm1_alpha[3]);
}

TEST(Weights, ShapesMatchConfig) {
  const auto config = tiny_test_model();
  const ModelWeights w = make_weights(config);
  EXPECT_EQ(w.blocks.size(), config.n_blocks);
  // The tied embedding and every projection are stored input-major.
  EXPECT_EQ(w.embedding.shape(), tensor::Shape({config.d_model, config.vocab_size}));
  EXPECT_EQ(w.blocks[0].wq.shape(), tensor::Shape({config.d_model, config.d_model}));
  EXPECT_EQ(w.blocks[0].w_up.shape(), tensor::Shape({config.d_model, config.d_ff}));
  EXPECT_EQ(w.blocks[0].w_down.shape(), tensor::Shape({config.d_ff, config.d_model}));
  EXPECT_EQ(w.blocks[0].norm1_alpha.size(), config.d_model);
  EXPECT_FALSE(w.final_alpha.empty());  // tiny model has a final norm
}

TEST(Weights, GatedModelsHaveGateMatrix) {
  const auto llama = llama7b_surrogate(64);
  const ModelWeights w = make_weights(llama);
  EXPECT_EQ(w.blocks[0].w_gate.shape(), tensor::Shape({llama.d_model, llama.d_ff}));
  // RMSNorm models carry no beta.
  EXPECT_TRUE(w.blocks[0].norm1_beta.empty());
}

TEST(Weights, AlphaGainsGrowWithDepth) {
  // The variance schedule makes later-block norm gains larger — the
  // mechanism behind the emergent ISD decay.
  const auto config = llama7b_surrogate(64);
  const ModelWeights w = make_weights(config);
  const auto rms = [](const std::vector<float>& v) {
    double acc = 0.0;
    for (const float x : v) acc += static_cast<double>(x) * x;
    return std::sqrt(acc / static_cast<double>(v.size()));
  };
  EXPECT_GT(rms(w.blocks.back().norm1_alpha), rms(w.blocks.front().norm1_alpha));
}

TEST(Attention, OutputShapeMatches) {
  const auto config = tiny_test_model();
  const ModelWeights w = make_weights(config);
  common::Rng rng(1);
  const tensor::Tensor x = tensor::Tensor::randn(
      tensor::Shape{8, config.d_model}, rng);
  const tensor::Tensor out = packed_attention(x, BatchLayout::single(8),
                                              w.blocks[0], config.n_heads);
  EXPECT_EQ(out.shape(), x.shape());
}

TEST(Attention, CausalityFirstTokenUnaffectedByLater) {
  // Changing later tokens must not change the first row's output.
  const auto config = tiny_test_model();
  const ModelWeights w = make_weights(config);
  common::Rng rng(2);
  tensor::Tensor x = tensor::Tensor::randn(tensor::Shape{4, config.d_model}, rng);
  const BatchLayout layout = BatchLayout::single(4);
  const tensor::Tensor out1 =
      packed_attention(x, layout, w.blocks[0], config.n_heads);
  for (std::size_t c = 0; c < config.d_model; ++c) x.at(3, c) += 10.0f;
  const tensor::Tensor out2 =
      packed_attention(x, layout, w.blocks[0], config.n_heads);
  for (std::size_t c = 0; c < config.d_model; ++c) {
    EXPECT_FLOAT_EQ(out1.at(0, c), out2.at(0, c));
  }
}

TEST(Transformer, ForwardShapesAndDeterminism) {
  Transformer model(tiny_test_model());
  ExactNormProvider exact;
  const auto tokens = test_tokens(model.config(), 6);
  const tensor::Tensor h1 = model.forward_hidden(tokens, exact);
  const tensor::Tensor h2 = model.forward_hidden(tokens, exact);
  EXPECT_EQ(h1.shape(), tensor::Shape({6, model.config().d_model}));
  EXPECT_EQ(h1.data()[17], h2.data()[17]);
}

TEST(Transformer, CausalAcrossWholeStack) {
  Transformer model(tiny_test_model());
  ExactNormProvider exact;
  auto tokens = test_tokens(model.config(), 5);
  const tensor::Tensor h1 = model.forward_hidden(tokens, exact);
  tokens.back() = (tokens.back() + 1) % static_cast<int>(model.config().vocab_size);
  const tensor::Tensor h2 = model.forward_hidden(tokens, exact);
  // Positions before the changed token are bit-identical.
  for (std::size_t p = 0; p + 1 < 5; ++p) {
    for (std::size_t c = 0; c < model.config().d_model; ++c) {
      EXPECT_EQ(h1.at(p, c), h2.at(p, c)) << "p=" << p;
    }
  }
}

TEST(Transformer, ObserverSeesEveryNormLayerAndPosition) {
  Transformer model(tiny_test_model());
  ExactNormProvider exact;
  const std::size_t seq = 3;
  std::vector<std::size_t> per_layer(model.config().norm_layer_count(), 0);
  model.set_norm_observer(
      [&](std::size_t layer, std::size_t pos, std::span<const float> z) {
        ASSERT_LT(layer, per_layer.size());
        EXPECT_LT(pos, seq);
        EXPECT_EQ(z.size(), model.config().d_model);
        ++per_layer[layer];
      });
  model.forward_hidden(test_tokens(model.config(), seq), exact);
  for (const std::size_t count : per_layer) EXPECT_EQ(count, seq);
}

TEST(Transformer, PooledFeatureIsMeanOfFinalHidden) {
  Transformer model(tiny_test_model());
  ExactNormProvider exact;
  const auto tokens = test_tokens(model.config(), 4);
  const tensor::Tensor h = model.forward_hidden(tokens, exact);
  const auto pooled = model.pooled_features(tokens, exact);
  const auto mean = tensor::mean_rows(h);
  for (std::size_t c = 0; c < pooled.size(); ++c) EXPECT_FLOAT_EQ(pooled[c], mean[c]);
}

TEST(Transformer, LogitsShapeAndFiniteness) {
  Transformer model(tiny_test_model());
  ExactNormProvider exact;
  const auto logits = model.last_logits(test_tokens(model.config(), 4), exact);
  EXPECT_EQ(logits.size(), model.config().vocab_size);
  for (const float v : logits) EXPECT_TRUE(std::isfinite(v));
}

TEST(Transformer, PostNormVariantRuns) {
  auto config = tiny_test_model();
  config.placement = NormPlacement::kPostNorm;
  Transformer model(config);
  ExactNormProvider exact;
  const tensor::Tensor h = model.forward_hidden(test_tokens(config, 4), exact);
  for (const float v : h.data()) EXPECT_TRUE(std::isfinite(v));
  // Post-norm output has been normalized: per-row variance ~ alpha^2 scale.
  const auto stats = tensor::exact_stats(h.row(0));
  EXPECT_LT(std::abs(stats.mean), 2.0);
}

}  // namespace
}  // namespace haan::model
