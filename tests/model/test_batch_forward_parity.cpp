// Mega-batch bit-identity across the whole execution path: a packed
// cross-request forward (forward_hidden_batch over a BatchLayout) must
// reproduce the per-request forward_hidden outputs bit for bit — for every
// factory provider AND the accelerator provider, over pre/post-norm,
// LayerNorm/RMSNorm, ragged packings (singleton, mixed lengths, prime
// Σ seq_len) and any RowPartitionPool thread count (serial, 2, 3) for both
// the provider-internal row partitioning and the forward's span pool.
//
// Why this holds: per-row arithmetic is position-independent except for the
// ISD predictor, which keys anchors by position — and the packed forward
// assigns every row a unique position (its packed row index), so each row
// predicts from exactly the anchor computed over its own data, as in the
// per-request run. All row kernels are row-wise, so partitioning cannot
// reorder any row's arithmetic.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/accel_norm_provider.hpp"
#include "core/provider_factory.hpp"
#include "model/transformer.hpp"

namespace haan::model {
namespace {

ModelConfig parity_model(NormPlacement placement, NormKind kind) {
  ModelConfig config;
  config.name = "megabatch-parity";
  config.n_blocks = 3;
  config.d_model = 61;  // prime
  config.n_heads = 1;
  config.d_ff = 64;
  config.vocab_size = 97;
  config.max_seq_len = 32;
  config.norm_kind = kind;
  config.placement = placement;
  config.final_norm = true;
  config.seed = 11;
  return config;
}

core::ProviderOptions provider_options(const ModelConfig& config,
                                       std::size_t norm_threads) {
  core::ProviderOptions options;
  options.width = config.d_model;
  options.model_name = config.name;
  options.norm_threads = norm_threads;
  // A plan covering anchor layer 1 and skipped layers 2..4 exercises the
  // predictor's record/predict paths through the packed seam.
  options.plan.enabled = true;
  options.plan.start = 1;
  options.plan.end = 4;
  options.plan.decay = -0.05;
  return options;
}

std::vector<std::vector<int>> make_sequences(const ModelConfig& config,
                                             const std::vector<std::size_t>& lens) {
  common::Rng rng(23);
  std::vector<std::vector<int>> sequences;
  for (const std::size_t len : lens) {
    std::vector<int> tokens(len);
    for (auto& t : tokens) {
      t = static_cast<int>(rng.uniform_index(config.vocab_size));
    }
    sequences.push_back(std::move(tokens));
  }
  return sequences;
}

std::vector<std::span<const int>> as_spans(
    const std::vector<std::vector<int>>& sequences) {
  std::vector<std::span<const int>> spans;
  spans.reserve(sequences.size());
  for (const auto& tokens : sequences) spans.emplace_back(tokens);
  return spans;
}

/// Compares the packed block's span rows against per-request references.
void expect_spans_match(const tensor::Tensor& packed, const BatchLayout& layout,
                        const std::vector<tensor::Tensor>& per_request,
                        std::size_t d, const std::string& label) {
  ASSERT_EQ(layout.sequences(), per_request.size()) << label;
  ASSERT_EQ(packed.shape().dim(0), layout.total_rows()) << label;
  for (std::size_t s = 0; s < per_request.size(); ++s) {
    const SequenceSpan& span = layout.span(s);
    const auto expected = per_request[s].data();
    ASSERT_EQ(expected.size(), span.rows * d) << label;
    const auto rows = packed.data().subspan(span.row_begin * d, span.rows * d);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(rows[i], expected[i])
          << label << " seq " << s << " element " << i;
    }
  }
}

// Ragged packings: singleton, mixed lengths with repeated length-1 prompts,
// and a prime Σ seq_len (5 + 1 + 7 = 13).
const std::vector<std::vector<std::size_t>> kPackings = {
    {7},
    {5, 1, 7},
    {4, 4, 4, 4},
    {1, 9, 1, 2},
};

TEST(MegaBatchParity, PackedForwardMatchesPerRequestForAllProviders) {
  for (const std::string& name : core::norm_provider_names()) {
    for (const NormPlacement placement :
         {NormPlacement::kPreNorm, NormPlacement::kPostNorm}) {
      for (const NormKind kind : {NormKind::kLayerNorm, NormKind::kRMSNorm}) {
        const ModelConfig config = parity_model(placement, kind);
        Transformer model(config);
        for (const auto& lens : kPackings) {
          const auto sequences = make_sequences(config, lens);
          const auto spans = as_spans(sequences);

          // Per-request reference: one provider, sequential forwards (the
          // run_reference execution model).
          const core::ProviderOptions ref_options = provider_options(config, 1);
          auto ref_provider = core::make_norm_provider(name, ref_options);
          ASSERT_NE(ref_provider, nullptr);
          std::vector<tensor::Tensor> per_request;
          for (const auto& tokens : sequences) {
            per_request.push_back(model.forward_hidden(tokens, *ref_provider));
          }

          const BatchLayout layout = BatchLayout::from_sequences(spans);
          for (const std::size_t threads : {1u, 2u, 3u}) {
            const std::string label = name + " " +
                                      (placement == NormPlacement::kPreNorm
                                           ? "pre-" : "post-") +
                                      (kind == NormKind::kLayerNorm ? "ln" : "rms") +
                                      " pack=" + std::to_string(lens.size()) +
                                      " threads=" + std::to_string(threads);
            auto packed_provider = core::make_norm_provider(
                name, provider_options(config, threads));
            RowPartitionPool span_pool(threads);
            const tensor::Tensor packed = model.forward_hidden_batch(
                spans, layout, *packed_provider, &span_pool);
            expect_spans_match(packed, layout, per_request, config.d_model, label);
          }
        }
      }
    }
  }
}

TEST(MegaBatchParity, HaanCountersIdenticalToPerRequestAggregate) {
  const ModelConfig config = parity_model(NormPlacement::kPreNorm,
                                          NormKind::kLayerNorm);
  Transformer model(config);
  const auto sequences = make_sequences(config, {5, 1, 7});
  const auto spans = as_spans(sequences);

  auto ref = core::make_norm_provider("haan", provider_options(config, 1));
  for (const auto& tokens : sequences) model.forward_hidden(tokens, *ref);
  const auto* ref_haan = core::as_haan_provider(ref.get());
  ASSERT_NE(ref_haan, nullptr);

  auto packed = core::make_norm_provider("haan", provider_options(config, 3));
  const BatchLayout layout = BatchLayout::from_sequences(spans);
  model.forward_hidden_batch(spans, layout, *packed);
  const auto* packed_haan = core::as_haan_provider(packed.get());
  ASSERT_NE(packed_haan, nullptr);

  // Per-row counters aggregate identically; the batching-shape counters show
  // the packed run amortized every layer into ONE call over Σ seq_len rows.
  EXPECT_EQ(packed_haan->counters().norm_calls, ref_haan->counters().norm_calls);
  EXPECT_EQ(packed_haan->counters().isd_computed,
            ref_haan->counters().isd_computed);
  EXPECT_EQ(packed_haan->counters().isd_predicted,
            ref_haan->counters().isd_predicted);
  EXPECT_EQ(packed_haan->counters().elements_read,
            ref_haan->counters().elements_read);
  EXPECT_EQ(packed_haan->counters().fused_residual_norms,
            ref_haan->counters().fused_residual_norms);
  EXPECT_EQ(packed_haan->counters().batched_norm_calls,
            config.norm_layer_count());
  EXPECT_EQ(ref_haan->counters().batched_norm_calls,
            config.norm_layer_count() * sequences.size());
}

TEST(MegaBatchParity, AcceleratorProviderPackedMatchesPerRequest) {
  const ModelConfig config = parity_model(NormPlacement::kPreNorm,
                                          NormKind::kRMSNorm);
  Transformer model(config);
  const auto sequences = make_sequences(config, {5, 1, 7});
  const auto spans = as_spans(sequences);

  core::HaanConfig algorithm;
  algorithm.plan.enabled = true;
  algorithm.plan.start = 1;
  algorithm.plan.end = 4;
  algorithm.plan.decay = -0.05;

  accel::AcceleratorNormProvider ref(accel::haan_v1(), algorithm);
  std::vector<tensor::Tensor> per_request;
  for (const auto& tokens : sequences) {
    per_request.push_back(model.forward_hidden(tokens, ref));
  }

  accel::AcceleratorNormProvider packed(accel::haan_v1(), algorithm);
  const BatchLayout layout = BatchLayout::from_sequences(spans);
  const tensor::Tensor out = model.forward_hidden_batch(spans, layout, packed);
  expect_spans_match(out, layout, per_request, config.d_model, "accel");

  // Identical per-vector work, batched burst pricing: same norm_calls and
  // skip split, strictly fewer cycles (pipeline fill and DMA burst paid once
  // per layer instead of once per row).
  EXPECT_EQ(packed.cost().norm_calls, ref.cost().norm_calls);
  EXPECT_EQ(packed.cost().skipped, ref.cost().skipped);
  EXPECT_EQ(packed.cost().batched_layers, config.norm_layer_count());
  EXPECT_LT(packed.cost().cycles, ref.cost().cycles);
}

TEST(MegaBatchParity, ObserverSeesEveryPackedRowBitIdentically) {
  const ModelConfig config = parity_model(NormPlacement::kPreNorm,
                                          NormKind::kLayerNorm);
  Transformer model(config);
  const auto sequences = make_sequences(config, {5, 1, 7});
  const auto spans = as_spans(sequences);
  const BatchLayout layout = BatchLayout::from_sequences(spans);

  struct Observation {
    std::size_t layer;
    std::size_t position;
    std::vector<float> z;
  };

  // Per-request observations keyed by (layer, packed row index) via the
  // layout, matching the packed forward's observer positions.
  std::map<std::pair<std::size_t, std::size_t>, std::vector<float>> expected;
  {
    auto provider = core::make_norm_provider("haan", provider_options(config, 1));
    for (std::size_t s = 0; s < sequences.size(); ++s) {
      const std::size_t row_begin = layout.span(s).row_begin;
      model.set_norm_observer([&, row_begin](std::size_t layer, std::size_t pos,
                                             std::span<const float> z) {
        expected[{layer, row_begin + pos}] = {z.begin(), z.end()};
      });
      model.forward_hidden(sequences[s], *provider);
    }
  }

  std::vector<Observation> packed_observed;
  model.set_norm_observer([&](std::size_t layer, std::size_t pos,
                              std::span<const float> z) {
    packed_observed.push_back({layer, pos, {z.begin(), z.end()}});
  });
  auto provider = core::make_norm_provider("haan", provider_options(config, 2));
  model.forward_hidden_batch(spans, layout, *provider);
  model.set_norm_observer({});

  ASSERT_EQ(packed_observed.size(), expected.size());
  for (const auto& obs : packed_observed) {
    const auto it = expected.find({obs.layer, obs.position});
    ASSERT_NE(it, expected.end())
        << "layer " << obs.layer << " row " << obs.position;
    ASSERT_EQ(obs.z.size(), it->second.size());
    for (std::size_t i = 0; i < obs.z.size(); ++i) {
      ASSERT_EQ(obs.z[i], it->second[i])
          << "layer " << obs.layer << " row " << obs.position << " i=" << i;
    }
  }
}

TEST(MegaBatchParity, LayoutValidatesPacking) {
  BatchLayout layout = BatchLayout::from_lengths(std::vector<std::size_t>{3, 4});
  EXPECT_EQ(layout.total_rows(), 7u);
  EXPECT_EQ(layout.sequences(), 2u);
  EXPECT_EQ(layout.span(1).row_begin, 3u);
  EXPECT_EQ(layout.span(1).rows, 4u);
  EXPECT_EQ(layout.span(1).start_position, 0u);
  EXPECT_DEATH(BatchLayout::from_lengths(std::vector<std::size_t>{3, 0}), "");
}

}  // namespace
}  // namespace haan::model
