#include "eval/evaluator.hpp"

#include <gtest/gtest.h>

#include "core/haan_norm.hpp"

namespace haan::eval {
namespace {

model::Transformer& tiny_model() {
  static model::Transformer model(model::tiny_test_model());
  return model;
}

TaskDataset& dataset() {
  static TaskDataset ds = [] {
    auto spec = task_suite_for("LLaMA-7B")[0];
    spec.context_len = 6;
    return TaskDataset::generate(tiny_model(), spec, 48);
  }();
  return ds;
}

TEST(Evaluator, ExactProviderMatchesBaselineExactly) {
  // Evaluating with exact normalization reproduces the stored generator
  // decisions bit for bit: zero flips.
  model::ExactNormProvider exact;
  const AccuracyResult result = evaluate_accuracy(tiny_model(), exact, dataset());
  const AccuracyResult baseline = evaluate_baseline(dataset());
  EXPECT_EQ(result.flips_vs_baseline, 0u);
  EXPECT_EQ(result.correct, baseline.correct);
  EXPECT_DOUBLE_EQ(result.accuracy, baseline.accuracy);
}

TEST(Evaluator, ParallelMatchesSerial) {
  model::ExactNormProvider exact;
  const AccuracyResult serial = evaluate_accuracy(tiny_model(), exact, dataset());
  const AccuracyResult parallel = evaluate_accuracy_parallel(
      tiny_model(), [] { return std::make_unique<model::ExactNormProvider>(); },
      dataset(), 4);
  EXPECT_EQ(parallel.correct, serial.correct);
  EXPECT_EQ(parallel.flips_vs_baseline, serial.flips_vs_baseline);
  EXPECT_EQ(parallel.n_examples, serial.n_examples);
}

TEST(Evaluator, ParallelThreadCountIrrelevant) {
  const auto factory = [] { return std::make_unique<model::ExactNormProvider>(); };
  const AccuracyResult one = evaluate_accuracy_parallel(tiny_model(), factory,
                                                        dataset(), 1);
  const AccuracyResult many = evaluate_accuracy_parallel(tiny_model(), factory,
                                                         dataset(), 16);
  EXPECT_EQ(one.correct, many.correct);
}

TEST(Evaluator, GoodHaanConfigCausesFewFlips) {
  core::HaanConfig config;
  config.nsub = tiny_model().config().d_model / 2;
  const AccuracyResult result = evaluate_accuracy_parallel(
      tiny_model(),
      [&] { return std::make_unique<core::HaanNormProvider>(config); }, dataset(),
      4);
  // Subsampled stats + fast invsqrt: decision churn stays in single digits.
  EXPECT_LE(result.flips_vs_baseline, dataset().examples().size() / 8);
}

TEST(Evaluator, GarbageNormalizationCollapsesToChance) {
  // A provider that scales by a huge constant destroys the features: accuracy
  // falls toward 1/n_choices.
  class BrokenNorm final : public model::NormProvider {
   public:
    void normalize_rows(std::size_t layer, std::size_t, model::NormKind,
                        std::size_t, std::span<const float> x,
                        std::span<const float>, std::span<const float>,
                        std::span<float> out) override {
      for (std::size_t i = 0; i < x.size(); ++i) {
        // Early layers amplified, later damped: feature directions scrambled.
        out[i] = (layer % 2 == 0) ? x[i] * 37.0f : x[i] * 0.01f;
      }
    }
  };
  BrokenNorm broken;
  const AccuracyResult result = evaluate_accuracy(tiny_model(), broken, dataset());
  EXPECT_LT(result.accuracy, 0.68);  // far from the ~0.70 calibrated baseline
  EXPECT_GT(result.flips_vs_baseline, dataset().examples().size() / 4);
}

TEST(Evaluator, CountsAreConsistent) {
  model::ExactNormProvider exact;
  const AccuracyResult result = evaluate_accuracy(tiny_model(), exact, dataset());
  EXPECT_EQ(result.n_examples, dataset().examples().size());
  EXPECT_LE(result.correct, result.n_examples);
  EXPECT_DOUBLE_EQ(result.accuracy, static_cast<double>(result.correct) /
                                        static_cast<double>(result.n_examples));
}

}  // namespace
}  // namespace haan::eval
