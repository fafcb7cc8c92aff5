// Row-block vs per-row bit-identity across the whole normalization seam: a
// transformer forward through the row-block entry points (normalize_rows /
// residual_add_normalize_rows, the production path in block.cpp) must produce
// exactly the hidden states of token-at-a-time execution for every provider
// the factory can build, over pre-norm and post-norm configs, observer on and
// off, odd row counts and prime d. The per-row reference wraps each provider
// in an adapter that splits every block into one-row calls at their token
// positions, so the provider runs the same pipeline once per row.
//
// Both runs use the same dispatched kernel backend, and the row-block kernels
// process each row independently of its neighbours, so the comparison is EQ
// (not NEAR) under scalar *and* SIMD dispatch; CI's HAAN_FORCE_SCALAR run
// pins the scalar guarantee.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/provider_factory.hpp"
#include "core/skip_planner.hpp"
#include "model/transformer.hpp"

namespace haan::model {
namespace {

/// Forces token-at-a-time execution: splits every row block into one-row
/// calls to the wrapped provider, each at its own token position.
class PerRowAdapter final : public NormProvider {
 public:
  explicit PerRowAdapter(NormProvider& inner) : inner_(inner) {}

  void begin_sequence() override { inner_.begin_sequence(); }

  void normalize_rows(std::size_t layer_index, std::size_t start_position,
                      NormKind kind, std::size_t rows, std::span<const float> x,
                      std::span<const float> alpha, std::span<const float> beta,
                      std::span<float> out) override {
    const std::size_t d = check_row_block(rows, x.size(), alpha, beta, out.size());
    for (std::size_t r = 0; r < rows; ++r) {
      inner_.normalize_rows(layer_index, start_position + r, kind, 1,
                            x.subspan(r * d, d), alpha, beta,
                            out.subspan(r * d, d));
    }
  }

  void residual_add_normalize_rows(std::size_t layer_index,
                                   std::size_t start_position, NormKind kind,
                                   std::size_t rows, std::span<float> h,
                                   std::span<const float> residual,
                                   std::span<const float> alpha,
                                   std::span<const float> beta,
                                   std::span<float> out) override {
    const std::size_t d = check_row_block(rows, h.size(), alpha, beta, out.size());
    for (std::size_t r = 0; r < rows; ++r) {
      inner_.residual_add_normalize_rows(
          layer_index, start_position + r, kind, 1, h.subspan(r * d, d),
          residual.subspan(r * d, d), alpha, beta, out.subspan(r * d, d));
    }
  }

 private:
  NormProvider& inner_;
};

/// Small models with prime d (n_heads = 1 so attention still divides) and
/// enough blocks for the skip plan to cover computed, anchor and skipped
/// layers.
ModelConfig parity_model(NormPlacement placement, NormKind kind) {
  ModelConfig config;
  config.name = "rowblock-parity";
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

core::ProviderOptions provider_options(const ModelConfig& config) {
  core::ProviderOptions options;
  options.width = config.d_model;
  options.model_name = config.name;
  // A plan covering anchor layer 1 and skipped layers 2..4 exercises the
  // predictor's record/predict paths through the batched seam.
  options.plan.enabled = true;
  options.plan.start = 1;
  options.plan.end = 4;
  options.plan.decay = -0.05;
  return options;
}

std::vector<int> parity_tokens(const ModelConfig& config, std::size_t n) {
  common::Rng rng(17);
  std::vector<int> tokens(n);
  for (auto& t : tokens) {
    t = static_cast<int>(rng.uniform_index(config.vocab_size));
  }
  return tokens;
}

struct Observation {
  std::size_t layer;
  std::size_t position;
  std::vector<float> z;
};

NormInputObserver collecting_observer(std::vector<Observation>& sink) {
  return [&sink](std::size_t layer, std::size_t position,
                 std::span<const float> z) {
    sink.push_back({layer, position, {z.begin(), z.end()}});
  };
}

TEST(RowBlockParity, AllProvidersAllConfigsBitIdenticalToPerRow) {
  const std::size_t seq = 7;  // odd row count
  for (const std::string& name : core::norm_provider_names()) {
    for (const NormPlacement placement :
         {NormPlacement::kPreNorm, NormPlacement::kPostNorm}) {
      for (const NormKind kind : {NormKind::kLayerNorm, NormKind::kRMSNorm}) {
        for (const bool with_observer : {false, true}) {
          const ModelConfig config = parity_model(placement, kind);
          const core::ProviderOptions options = provider_options(config);
          Transformer model(config);
          const auto tokens = parity_tokens(config, seq);
          const std::string label = name + (with_observer ? "+obs" : "") +
                                    (placement == NormPlacement::kPreNorm
                                         ? " pre-"
                                         : " post-") +
                                    (kind == NormKind::kLayerNorm ? "ln" : "rms");

          // Reference: per-row execution via the adapter (fresh provider).
          auto ref_provider = core::make_norm_provider(name, options);
          ASSERT_NE(ref_provider, nullptr) << label;
          PerRowAdapter per_row(*ref_provider);
          std::vector<Observation> ref_observed;
          if (with_observer) {
            model.set_norm_observer(collecting_observer(ref_observed));
          } else {
            model.set_norm_observer({});
          }
          const tensor::Tensor ref = model.forward_hidden(tokens, per_row);

          // Batched: the provider's own row-block overrides (fresh provider,
          // same configuration => same per-sequence predictor state).
          auto batched_provider = core::make_norm_provider(name, options);
          std::vector<Observation> batched_observed;
          if (with_observer) {
            model.set_norm_observer(collecting_observer(batched_observed));
          }
          const tensor::Tensor batched =
              model.forward_hidden(tokens, *batched_provider);
          model.set_norm_observer({});

          ASSERT_EQ(ref.shape(), batched.shape()) << label;
          const auto ref_data = ref.data();
          const auto batched_data = batched.data();
          for (std::size_t i = 0; i < ref_data.size(); ++i) {
            ASSERT_EQ(batched_data[i], ref_data[i])
                << label << " element " << i;
          }

          if (with_observer) {
            // The observer must see every row's norm input bit-identically;
            // rows of one layer may be reported in a different interleaving
            // than the per-row loop, but the (layer, position) -> vector map
            // is identical.
            ASSERT_EQ(batched_observed.size(), ref_observed.size()) << label;
            std::map<std::pair<std::size_t, std::size_t>, std::vector<float>>
                ref_map;
            for (const auto& obs : ref_observed) {
              ref_map[{obs.layer, obs.position}] = obs.z;
            }
            for (const auto& obs : batched_observed) {
              const auto it = ref_map.find({obs.layer, obs.position});
              ASSERT_NE(it, ref_map.end()) << label;
              ASSERT_EQ(obs.z.size(), it->second.size()) << label;
              for (std::size_t i = 0; i < obs.z.size(); ++i) {
                ASSERT_EQ(obs.z[i], it->second[i])
                    << label << " layer " << obs.layer << " pos "
                    << obs.position << " i=" << i;
              }
            }
          }

          // HAAN variants: the per-row counters must agree exactly between
          // the two execution models, and each must have made the calls it
          // claims: one per row for the adapter, one per layer otherwise.
          const auto* ref_haan = core::as_haan_provider(ref_provider.get());
          const auto* batched_haan =
              core::as_haan_provider(batched_provider.get());
          ASSERT_EQ(ref_haan == nullptr, batched_haan == nullptr) << label;
          if (ref_haan != nullptr) {
            EXPECT_EQ(batched_haan->counters().norm_calls,
                      ref_haan->counters().norm_calls)
                << label;
            EXPECT_EQ(batched_haan->counters().isd_computed,
                      ref_haan->counters().isd_computed)
                << label;
            EXPECT_EQ(batched_haan->counters().isd_predicted,
                      ref_haan->counters().isd_predicted)
                << label;
            EXPECT_EQ(batched_haan->counters().elements_read,
                      ref_haan->counters().elements_read)
                << label;
            EXPECT_EQ(ref_haan->counters().batched_norm_calls,
                      config.norm_layer_count() * seq)
                << label;
            EXPECT_EQ(batched_haan->counters().batched_norm_calls,
                      config.norm_layer_count())
                << label;
          }
        }
      }
    }
  }
}

TEST(RowBlockParity, BatchedEntryPointsValidateShapes) {
  ExactNormProvider exact;
  std::vector<float> x(12, 1.0f), out(12);
  // rows must divide the block size.
  EXPECT_DEATH(exact.normalize_rows(0, 0, NormKind::kRMSNorm, 5, x, {}, {}, out),
               "");
}

}  // namespace
}  // namespace haan::model
