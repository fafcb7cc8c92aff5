#include "accel/accel_norm_provider.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/calibration.hpp"
#include "core/haan_norm.hpp"
#include "model/transformer.hpp"
#include "tensor/ops.hpp"

namespace haan::accel {
namespace {

TEST(AcceleratorNormProvider, MatchesSoftwareTwinOnSingleLayer) {
  core::HaanConfig algorithm;
  algorithm.nsub = 64;
  algorithm.format = numerics::NumericFormat::kFP16;
  AcceleratorNormProvider hw(haan_v1(), algorithm);
  core::HaanNormProvider sw(algorithm);

  common::Rng rng(5);
  std::vector<float> z(128);
  rng.fill_gaussian(z, 0.3, 1.4);
  std::vector<float> out_hw(z.size()), out_sw(z.size());
  hw.begin_sequence();
  sw.begin_sequence();
  hw.normalize(0, 0, model::NormKind::kLayerNorm, z, {}, {}, out_hw);
  sw.normalize(0, 0, model::NormKind::kLayerNorm, z, {}, {}, out_sw);
  EXPECT_LT(tensor::rms_error(out_hw, out_sw), 0.02);
}

TEST(AcceleratorNormProvider, WholeModelForwardOnHardwareNumerics) {
  model::Transformer model(model::tiny_test_model());
  core::HaanConfig algorithm;
  AcceleratorNormProvider hw(haan_v1(), algorithm);
  model::ExactNormProvider exact;

  const auto corpus =
      core::random_token_corpus(model.config().vocab_size, 1, 6, 9);
  const auto f_exact = model.pooled_features(corpus[0], exact);
  const auto f_hw = model.pooled_features(corpus[0], hw);
  for (const float v : f_hw) ASSERT_TRUE(std::isfinite(v));
  const double cosine = tensor::dot(f_exact, f_hw) /
                        (tensor::l2_norm(f_exact) * tensor::l2_norm(f_hw));
  EXPECT_GT(cosine, 0.99);  // fixed-point datapath barely perturbs the model
}

TEST(AcceleratorNormProvider, AccumulatesHardwareCost) {
  model::Transformer model(model::tiny_test_model());
  core::HaanConfig algorithm;
  AcceleratorNormProvider hw(haan_v1(), algorithm);
  const auto corpus =
      core::random_token_corpus(model.config().vocab_size, 1, 4, 10);
  model.forward_hidden(corpus[0], hw);
  const auto& cost = hw.cost();
  EXPECT_EQ(cost.norm_calls, model.config().norm_layer_count() * 4);
  EXPECT_GT(cost.cycles, 0u);
  EXPECT_GT(cost.energy_uj, 0.0);
  EXPECT_EQ(cost.skipped, 0u);

  hw.reset_cost();
  EXPECT_EQ(hw.cost().norm_calls, 0u);
}

TEST(AcceleratorNormProvider, SkipPlanReducesEnergyPerCall) {
  core::SkipPlan plan;
  plan.start = 0;
  plan.end = 2;
  plan.decay = -0.05;
  plan.enabled = true;
  core::HaanConfig with_plan;
  with_plan.plan = plan;
  AcceleratorNormProvider hw(haan_v1(), with_plan);

  common::Rng rng(6);
  std::vector<float> z(256);
  rng.fill_gaussian(z, 0.0, 1.0);
  std::vector<float> out(z.size());
  hw.begin_sequence();
  hw.normalize(0, 0, model::NormKind::kRMSNorm, z, {}, {}, out);  // anchor
  const double anchor_energy = hw.cost().energy_uj;
  hw.normalize(1, 0, model::NormKind::kRMSNorm, z, {}, {}, out);  // skipped
  const double skipped_energy = hw.cost().energy_uj - anchor_energy;
  EXPECT_LT(skipped_energy, anchor_energy);
  EXPECT_EQ(hw.cost().skipped, 1u);
}

TEST(AcceleratorNormProvider, BatchedRowBlockBitIdenticalAndCheaper) {
  core::HaanConfig algorithm;
  algorithm.nsub = 64;
  common::Rng rng(9);
  const std::size_t rows = 13, d = 128;  // prime row count
  std::vector<float> x(rows * d);
  rng.fill_gaussian(x, 0.1, 1.2);

  // Per-row reference: one one-row call (one burst) per vector.
  AcceleratorNormProvider per_row(haan_v1(), algorithm);
  std::vector<float> out_ref(x.size());
  per_row.begin_sequence();
  for (std::size_t r = 0; r < rows; ++r) {
    per_row.normalize(0, r, model::NormKind::kLayerNorm,
                      std::span<const float>(x).subspan(r * d, d), {}, {},
                      std::span<float>(out_ref).subspan(r * d, d));
  }

  // Batched: one row-block call, one burst-amortized cost charge.
  AcceleratorNormProvider batched(haan_v1(), algorithm);
  std::vector<float> out_batched(x.size());
  batched.begin_sequence();
  batched.normalize_rows(0, 0, model::NormKind::kLayerNorm, rows, x, {}, {},
                         out_batched);

  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(out_batched[i], out_ref[i]) << "element " << i;
  }
  EXPECT_EQ(batched.cost().norm_calls, per_row.cost().norm_calls);
  EXPECT_EQ(batched.cost().batched_layers, 1u);
  EXPECT_EQ(per_row.cost().batched_layers, rows);
  // Pipeline fill + DMA burst amortize across the packed rows: strictly
  // cheaper than rows independent per-vector charges, but still at least the
  // steady-state streaming cost of all rows.
  EXPECT_LT(batched.cost().cycles, per_row.cost().cycles);
  EXPECT_GE(batched.cost().cycles,
            (rows - 1) * batched.accelerator()
                             .time_layer({d, 1, algorithm.nsub, false,
                                          model::NormKind::kLayerNorm})
                             .per_vector.bottleneck());
}

TEST(AcceleratorNormProvider, BatchedResidualPathMatchesPerRowCalls) {
  core::HaanConfig algorithm;
  common::Rng rng(11);
  const std::size_t rows = 5, d = 96;
  std::vector<float> h(rows * d), residual(rows * d);
  rng.fill_gaussian(h, 0.0, 1.0);
  rng.fill_gaussian(residual, 0.0, 0.5);

  // Reference: one residual_add_normalize call per row.
  AcceleratorNormProvider ref(haan_v1(), algorithm);
  std::vector<float> h_ref = h, out_ref(h.size());
  ref.begin_sequence();
  for (std::size_t r = 0; r < rows; ++r) {
    ref.residual_add_normalize(
        0, r, model::NormKind::kRMSNorm, std::span<float>(h_ref).subspan(r * d, d),
        std::span<const float>(residual).subspan(r * d, d), {}, {},
        std::span<float>(out_ref).subspan(r * d, d));
  }

  AcceleratorNormProvider batched(haan_v1(), algorithm);
  std::vector<float> h_batched = h, out_batched(h.size());
  batched.begin_sequence();
  batched.residual_add_normalize_rows(0, 0, model::NormKind::kRMSNorm, rows,
                                      h_batched, residual, {}, {}, out_batched);

  for (std::size_t i = 0; i < h.size(); ++i) {
    ASSERT_EQ(out_batched[i], out_ref[i]) << "element " << i;
    ASSERT_EQ(h_batched[i], h_ref[i]) << "residual stream element " << i;
  }
  EXPECT_EQ(batched.cost().batched_layers, 1u);
}

TEST(AcceleratorNormProvider, SkippedIsdFollowsPredictor) {
  core::SkipPlan plan;
  plan.start = 0;
  plan.end = 1;
  plan.decay = -0.5;
  plan.enabled = true;
  core::HaanConfig config;
  config.plan = plan;
  AcceleratorNormProvider hw(haan_v1(), config);

  common::Rng rng(7);
  std::vector<float> z(128);
  rng.fill_gaussian(z, 0.0, 2.0);
  std::vector<float> out0(z.size()), out1(z.size());
  hw.begin_sequence();
  hw.normalize(0, 0, model::NormKind::kRMSNorm, z, {}, {}, out0);
  hw.normalize(1, 0, model::NormKind::kRMSNorm, z, {}, {}, out1);
  // Same input, ISD scaled by exp(-0.5): outputs scale accordingly.
  const double ratio = tensor::l2_norm(out1) / tensor::l2_norm(out0);
  EXPECT_NEAR(ratio, std::exp(-0.5), 0.02);
}

}  // namespace
}  // namespace haan::accel
