#include "tensor/ops.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace haan::tensor {
namespace {

TEST(Linear, MatchesMatmulWithTransposedWeights) {
  common::Rng rng(2);
  const Tensor x = Tensor::randn(Shape{3, 5}, rng);
  const Tensor w = Tensor::randn(Shape{4, 5}, rng);  // (out x in)
  const Tensor y = linear(x, w, {});
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t o = 0; o < 4; ++o) {
      EXPECT_NEAR(y.at(i, o), dot(x.row(i), w.row(o)), 1e-4);
    }
  }
}

TEST(Linear, BiasApplied) {
  const Tensor x(Shape{1, 2}, {1.0f, 1.0f});
  const Tensor w(Shape{2, 2}, {1, 0, 0, 1});
  const std::vector<float> bias{10.0f, 20.0f};
  const Tensor y = linear(x, w, bias);
  EXPECT_FLOAT_EQ(y.at(0, 0), 11.0f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 21.0f);
}

TEST(Softmax, RowsSumToOne) {
  common::Rng rng(3);
  Tensor t = Tensor::randn(Shape{5, 16}, rng, 0.0, 3.0);
  softmax_rows(t);
  for (std::size_t r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (const float v : t.row(r)) {
      EXPECT_GE(v, 0.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(Softmax, StableUnderLargeLogits) {
  Tensor t(Shape{1, 3}, {1000.0f, 1000.0f, 1000.0f});
  softmax_rows(t);
  for (const float v : t.row(0)) EXPECT_NEAR(v, 1.0f / 3.0f, 1e-6f);
}

TEST(Gelu, KnownValues) {
  Tensor t(Shape{3}, {0.0f, 100.0f, -100.0f});
  gelu_inplace(t);
  EXPECT_FLOAT_EQ(t.at(0), 0.0f);
  EXPECT_NEAR(t.at(1), 100.0f, 1e-3f);  // large positive ~ identity
  EXPECT_NEAR(t.at(2), 0.0f, 1e-3f);    // large negative ~ 0
}

TEST(Gelu, MidpointValue) {
  Tensor t(Shape{1}, {1.0f});
  gelu_inplace(t);
  EXPECT_NEAR(t.at(0), 0.8412f, 1e-3f);  // tanh-approx GELU(1)
}

TEST(Silu, KnownValues) {
  Tensor t(Shape{3}, {0.0f, 10.0f, -10.0f});
  silu_inplace(t);
  EXPECT_FLOAT_EQ(t.at(0), 0.0f);
  EXPECT_NEAR(t.at(1), 10.0f, 1e-3f);
  EXPECT_NEAR(t.at(2), 0.0f, 1e-3f);
}

TEST(Elementwise, AddScaleHadamard) {
  Tensor a(Shape{3}, {1, 2, 3});
  const Tensor b(Shape{3}, {10, 20, 30});
  add_inplace(a, b);
  EXPECT_FLOAT_EQ(a.at(2), 33.0f);
  scale_inplace(a, 0.5f);
  EXPECT_FLOAT_EQ(a.at(0), 5.5f);
  const Tensor h = hadamard(a, b);
  EXPECT_FLOAT_EQ(h.at(1), 220.0f);
}

TEST(Reductions, MeanRows) {
  const Tensor t(Shape{2, 3}, {1, 2, 3, 3, 4, 5});
  const auto mean = mean_rows(t);
  EXPECT_FLOAT_EQ(mean[0], 2.0f);
  EXPECT_FLOAT_EQ(mean[1], 3.0f);
  EXPECT_FLOAT_EQ(mean[2], 4.0f);
}

TEST(Reductions, ArgmaxFirstOnTies) {
  const std::vector<float> v{1.0f, 5.0f, 5.0f, 2.0f};
  EXPECT_EQ(argmax(v), 1u);
}

TEST(VectorOps, DotAndNorm) {
  const std::vector<float> a{3.0f, 4.0f};
  const std::vector<float> b{1.0f, 0.0f};
  EXPECT_DOUBLE_EQ(dot(a, b), 3.0);
  EXPECT_DOUBLE_EQ(l2_norm(a), 5.0);
}

TEST(VectorOps, NormalizeToUnit) {
  std::vector<float> v{3.0f, 4.0f};
  l2_normalize(v);
  EXPECT_NEAR(l2_norm(v), 1.0, 1e-6);
  EXPECT_FLOAT_EQ(v[0], 0.6f);
}

TEST(VectorOps, NormalizeZeroVectorUntouched) {
  std::vector<float> v{0.0f, 0.0f};
  l2_normalize(v);
  EXPECT_EQ(v[0], 0.0f);
}

TEST(VectorOps, ErrorMetrics) {
  const std::vector<float> a{1.0f, 2.0f};
  const std::vector<float> b{1.5f, 2.0f};
  EXPECT_DOUBLE_EQ(max_abs_error(a, b), 0.5);
  EXPECT_NEAR(rms_error(a, b), 0.5 / std::sqrt(2.0), 1e-12);
}

}  // namespace
}  // namespace haan::tensor
