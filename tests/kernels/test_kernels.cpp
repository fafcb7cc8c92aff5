// Kernel-layer semantics: the scalar backend must reproduce the seed
// norm_ref/subsample arithmetic bit for bit, the row-block norms (here at
// rows = 1) must equal their unfused seed sequences exactly (scalar
// dispatch), and the dispatcher must honor HAAN_FORCE_SCALAR.
#include "kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "numerics/formats.hpp"

namespace haan::kernels {
namespace {

std::vector<float> random_vector(std::size_t n, std::uint64_t seed,
                                 double mean = 0.0, double stddev = 2.0) {
  common::Rng rng(seed);
  std::vector<float> z(n);
  rng.fill_gaussian(z, mean, stddev);
  return z;
}

/// The seed's exact_stats pass-1 loop, verbatim.
SumStats seed_sums(const std::vector<float>& z) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const float v : z) {
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  return {sum, sum_sq};
}

/// The seed's normalize + affine sequence, verbatim (temp buffer included).
std::vector<float> seed_normalize_affine(const std::vector<float>& z,
                                         double mean, double isd,
                                         const std::vector<float>& alpha,
                                         const std::vector<float>& beta) {
  std::vector<float> normalized(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    normalized[i] = static_cast<float>((z[i] - mean) * isd);
  }
  std::vector<float> out(z.size());
  for (std::size_t i = 0; i < z.size(); ++i) {
    float v = normalized[i];
    if (!alpha.empty()) v *= alpha[i];
    if (!beta.empty()) v += beta[i];
    out[i] = v;
  }
  return out;
}

TEST(ScalarKernels, StatsBitIdenticalToSeedLoop) {
  for (const std::size_t n : {1u, 7u, 64u, 1001u}) {
    const auto z = random_vector(n, n);
    const SumStats expected = seed_sums(z);
    const SumStats got = scalar_kernels().stats(z.data(), z.size());
    EXPECT_EQ(got.sum, expected.sum);
    EXPECT_EQ(got.sum_sq, expected.sum_sq);
  }
}

TEST(ScalarKernels, CenteredSumSqBitIdenticalToSeedLoop) {
  const auto z = random_vector(513, 2, 1.5, 3.0);
  const double mean = seed_sums(z).sum / static_cast<double>(z.size());
  double expected = 0.0;
  for (const float v : z) {
    const double d = v - mean;
    expected += d * d;
  }
  EXPECT_EQ(scalar_kernels().centered_sum_sq(z.data(), z.size(), mean), expected);
}

TEST(ScalarKernels, NormalizeAffineBitIdenticalToSeedSequence) {
  const auto z = random_vector(257, 3, -1.0, 2.0);
  const auto alpha = random_vector(257, 4, 1.0, 0.2);
  const auto beta = random_vector(257, 5, 0.0, 0.5);
  const double mean = 0.37;
  const double isd = 1.71;
  for (const bool with_alpha : {false, true}) {
    for (const bool with_beta : {false, true}) {
      const std::vector<float> a = with_alpha ? alpha : std::vector<float>{};
      const std::vector<float> b = with_beta ? beta : std::vector<float>{};
      const auto expected = seed_normalize_affine(z, mean, isd, a, b);
      std::vector<float> out(z.size());
      scalar_kernels().normalize_affine(z.data(), z.size(), mean, isd,
                                        a.empty() ? nullptr : a.data(),
                                        b.empty() ? nullptr : b.data(),
                                        out.data());
      for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], expected[i]);
    }
  }
}

TEST(ScalarKernels, ResidualAddStatsMatchesAddThenStats) {
  auto h = random_vector(123, 6);
  auto h_ref = h;
  const auto r = random_vector(123, 7);
  SumStats got;
  scalar_kernels().residual_add_stats_rows(h.data(), r.data(), 1, h.size(),
                                           h.size(), &got);
  for (std::size_t i = 0; i < h_ref.size(); ++i) h_ref[i] += r[i];
  const SumStats expected = seed_sums(h_ref);
  EXPECT_EQ(got.sum, expected.sum);
  EXPECT_EQ(got.sum_sq, expected.sum_sq);
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_EQ(h[i], h_ref[i]);
}

TEST(ScalarKernels, ResidualAddCopyUpdatesBothDestinations) {
  auto h = random_vector(65, 8);
  auto h_ref = h;
  const auto r = random_vector(65, 9);
  std::vector<float> dst(65, -1.0f);
  scalar_kernels().residual_add_copy(h.data(), r.data(), dst.data(), h.size());
  for (std::size_t i = 0; i < h.size(); ++i) {
    h_ref[i] += r[i];
    EXPECT_EQ(h[i], h_ref[i]);
    EXPECT_EQ(dst[i], h_ref[i]);
  }
}

TEST(ScalarKernels, QuantizeMatchesNumericsElementwise) {
  auto values = random_vector(333, 10, 0.0, 5.0);
  values.push_back(0.0f);
  values.push_back(-0.0f);
  values.push_back(1e-41f);   // denormal float
  values.push_back(65504.0f);
  values.push_back(-3e38f);
  for (const auto format :
       {numerics::NumericFormat::kFP32, numerics::NumericFormat::kFP16,
        numerics::NumericFormat::kBF16, numerics::NumericFormat::kINT8}) {
    const float scale = format == numerics::NumericFormat::kINT8
                            ? numerics::choose_int8_scale(values)
                            : 1.0f;
    auto got = values;
    scalar_kernels().quantize_dequantize(got.data(), got.size(), format, scale);
    for (std::size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(got[i], numerics::quantize_dequantize(values[i], format, scale))
          << "format " << numerics::to_string(format) << " index " << i;
    }
  }
}

TEST(FusedKernels, ResidualAddRmsnormMatchesSeedSequence) {
  // Seed sequence: h += r; stats; rms = sqrt(sum_sq/n); isd = 1/sqrt(rms^2 +
  // eps); normalize; affine. The fused scalar row kernel must be
  // bit-identical.
  const double eps = 1e-5;
  auto h = random_vector(301, 11);
  auto h_ref = h;
  const auto r = random_vector(301, 12);
  const auto alpha = random_vector(301, 13, 1.0, 0.1);
  std::vector<float> out(h.size());
  RowNormWorkspace ws;
  residual_add_rmsnorm_rows(scalar_kernels(), 1, h, r, alpha, {}, out, eps, ws);

  for (std::size_t i = 0; i < h_ref.size(); ++i) h_ref[i] += r[i];
  const SumStats sums = seed_sums(h_ref);
  const double rms = std::sqrt(sums.sum_sq / static_cast<double>(h_ref.size()));
  const double isd = 1.0 / std::sqrt(rms * rms + eps);
  const auto expected = seed_normalize_affine(h_ref, 0.0, isd, alpha, {});
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], expected[i]);
    EXPECT_EQ(h[i], h_ref[i]);
  }
}

TEST(FusedKernels, ResidualAddLayernormMatchesSeedSequence) {
  const double eps = 1e-5;
  auto h = random_vector(301, 14, 2.0, 1.5);
  auto h_ref = h;
  const auto r = random_vector(301, 15);
  const auto beta = random_vector(301, 16, 0.0, 0.3);
  std::vector<float> out(h.size());
  RowNormWorkspace ws;
  residual_add_layernorm_rows(scalar_kernels(), 1, h, r, {}, beta, out, eps,
                              ws);

  for (std::size_t i = 0; i < h_ref.size(); ++i) h_ref[i] += r[i];
  const double n = static_cast<double>(h_ref.size());
  const SumStats sums = seed_sums(h_ref);
  const double mean = sums.sum / n;
  double centered = 0.0;
  for (const float v : h_ref) {
    const double d = v - mean;
    centered += d * d;
  }
  const double isd = 1.0 / std::sqrt(centered / n + eps);
  const auto expected = seed_normalize_affine(h_ref, mean, isd, {}, beta);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], expected[i]);
    EXPECT_EQ(h[i], h_ref[i]);
  }
}

TEST(FusedKernels, EmptyResidualDegradesToPlainNorm) {
  auto h = random_vector(97, 17);
  const auto h_before = h;
  std::vector<float> out(h.size());
  RowNormWorkspace ws;
  residual_add_rmsnorm_rows(scalar_kernels(), 1, h, {}, {}, {}, out, 1e-5, ws);
  for (std::size_t i = 0; i < h.size(); ++i) EXPECT_EQ(h[i], h_before[i]);
  for (const float v : out) EXPECT_TRUE(std::isfinite(v));
}

TEST(Dispatch, ActiveTableIsSupported) {
  const char* name = active_name();
  ASSERT_NE(name, nullptr);
  bool found = false;
  for (const KernelTable* table : supported_kernels()) {
    if (std::string(table->name) == name) found = true;
  }
  EXPECT_TRUE(found) << "active kernel '" << name << "' not in supported set";
}

TEST(Dispatch, SupportedKernelsStartsWithScalar) {
  const auto tables = supported_kernels();
  ASSERT_FALSE(tables.empty());
  EXPECT_STREQ(tables.front()->name, "scalar");
}

TEST(Dispatch, ForceScalarEnvParsing) {
  // active() caches its first answer, so probe the env predicate directly.
  const char* prior = std::getenv("HAAN_FORCE_SCALAR");
  const std::string saved = prior != nullptr ? prior : "";
  const bool had_prior = prior != nullptr;

  ASSERT_EQ(setenv("HAAN_FORCE_SCALAR", "1", 1), 0);
  EXPECT_TRUE(force_scalar_requested());
  ASSERT_EQ(setenv("HAAN_FORCE_SCALAR", "0", 1), 0);
  EXPECT_FALSE(force_scalar_requested());
  ASSERT_EQ(setenv("HAAN_FORCE_SCALAR", "", 1), 0);
  EXPECT_FALSE(force_scalar_requested());
  ASSERT_EQ(unsetenv("HAAN_FORCE_SCALAR"), 0);
  EXPECT_FALSE(force_scalar_requested());

  if (had_prior) {
    ASSERT_EQ(setenv("HAAN_FORCE_SCALAR", saved.c_str(), 1), 0);
  }
}

TEST(Dispatch, ForcedScalarRunHasScalarActive) {
  // When the suite runs under HAAN_FORCE_SCALAR=1 (the CI scalar leg), the
  // cached dispatch must have landed on the scalar table.
  if (force_scalar_requested()) {
    EXPECT_STREQ(active_name(), "scalar");
  } else {
    SUCCEED();
  }
}

}  // namespace
}  // namespace haan::kernels
