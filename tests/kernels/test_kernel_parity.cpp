// Exhaustive scalar-vs-SIMD parity for every kernel, under the tolerance
// contract documented in kernels.hpp: reductions within 1e-12 * Σ|terms|
// (reassociated accumulation), elementwise kernels bit-identical or within
// 1 ulp (normalize_affine), fused norms within 4 ulp end to end. Lengths
// include primes and off-by-one-from-vector-width values to exercise every
// tail path; inputs include denormal-scale, large-magnitude and constant
// vectors.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "numerics/formats.hpp"

namespace haan::kernels {
namespace {

const std::size_t kLengths[] = {1,  2,  3,  5,  7,   8,   9,    13,   16,
                                17, 31, 32, 33, 61,  64,  97,   128,  251,
                                256, 257, 1000, 1023, 1024, 4096, 4099};

/// Distance between two floats in units in the last place (sign-magnitude
/// bit patterns mapped onto a monotone integer line).
std::int64_t ulp_distance(float a, float b) {
  const auto monotone = [](float v) -> std::int64_t {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    const std::int64_t magnitude = bits & 0x7FFFFFFF;
    return (bits & 0x80000000u) ? -magnitude : magnitude;
  };
  return std::llabs(monotone(a) - monotone(b));
}

struct InputCase {
  std::string name;
  std::vector<float> values;
};

std::vector<InputCase> input_cases(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<InputCase> cases;

  InputCase gaussian{"gaussian", std::vector<float>(n)};
  rng.fill_gaussian(gaussian.values, 0.5, 2.0);
  cases.push_back(std::move(gaussian));

  InputCase large{"large-magnitude", std::vector<float>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    large.values[i] = static_cast<float>(rng.gaussian() * 1e18);
  }
  cases.push_back(std::move(large));

  InputCase denormal{"denormal-scale", std::vector<float>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    denormal.values[i] = static_cast<float>(rng.gaussian()) * 1e-38f;
  }
  cases.push_back(std::move(denormal));

  cases.push_back({"constant", std::vector<float>(n, 3.25f)});

  InputCase alternating{"alternating", std::vector<float>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    alternating.values[i] = (i % 2 == 0) ? 1e6f : -1e6f;
  }
  cases.push_back(std::move(alternating));

  return cases;
}

double sum_abs(const std::vector<float>& z) {
  double acc = 0.0;
  for (const float v : z) acc += std::abs(static_cast<double>(v));
  return acc;
}

double sum_sq_abs(const std::vector<float>& z) {
  double acc = 0.0;
  for (const float v : z) acc += static_cast<double>(v) * v;
  return acc;
}

/// All SIMD backends this machine can run (empty on scalar-only hardware).
std::vector<const KernelTable*> simd_tables() {
  auto tables = supported_kernels();
  tables.erase(tables.begin());  // scalar is always first
  return tables;
}

class KernelParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (simd_tables().empty()) {
      GTEST_SKIP() << "no SIMD backend on this CPU; scalar-only";
    }
  }
};

TEST_F(KernelParity, Stats) {
  const KernelTable& scalar = scalar_kernels();
  for (const KernelTable* simd : simd_tables()) {
    for (const std::size_t n : kLengths) {
      for (const auto& input : input_cases(n, n)) {
        const SumStats expected = scalar.stats(input.values.data(), n);
        const SumStats got = simd->stats(input.values.data(), n);
        const double sum_tol = 1e-12 * sum_abs(input.values) + 1e-300;
        const double sq_tol = 1e-12 * sum_sq_abs(input.values) + 1e-300;
        EXPECT_NEAR(got.sum, expected.sum, sum_tol)
            << simd->name << " n=" << n << " " << input.name;
        EXPECT_NEAR(got.sum_sq, expected.sum_sq, sq_tol)
            << simd->name << " n=" << n << " " << input.name;
      }
    }
  }
}

TEST_F(KernelParity, CenteredSumSq) {
  const KernelTable& scalar = scalar_kernels();
  for (const KernelTable* simd : simd_tables()) {
    for (const std::size_t n : kLengths) {
      for (const auto& input : input_cases(n, n + 1)) {
        const double mean =
            scalar.stats(input.values.data(), n).sum / static_cast<double>(n);
        const double expected =
            scalar.centered_sum_sq(input.values.data(), n, mean);
        const double got = simd->centered_sum_sq(input.values.data(), n, mean);
        // Centered terms are bounded by (|v| + |mean|)^2.
        double term_bound = 0.0;
        for (const float v : input.values) {
          const double t = std::abs(static_cast<double>(v)) + std::abs(mean);
          term_bound += t * t;
        }
        EXPECT_NEAR(got, expected, 1e-12 * term_bound + 1e-300)
            << simd->name << " n=" << n << " " << input.name;
      }
    }
  }
}

TEST_F(KernelParity, ResidualAddFamilyBitIdentical) {
  for (const KernelTable* simd : simd_tables()) {
    for (const std::size_t n : kLengths) {
      for (const auto& input : input_cases(n, n + 2)) {
        common::Rng rng(n + 7);
        std::vector<float> residual(n);
        rng.fill_gaussian(residual, 0.0, 1.0);

        auto h_scalar = input.values;
        auto h_simd = input.values;
        scalar_kernels().residual_add(h_scalar.data(), residual.data(), n);
        simd->residual_add(h_simd.data(), residual.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(h_simd[i], h_scalar[i])
              << simd->name << " residual_add n=" << n << " " << input.name;
        }

        h_scalar = input.values;
        h_simd = input.values;
        std::vector<float> dst_scalar(n), dst_simd(n);
        scalar_kernels().residual_add_copy(h_scalar.data(), residual.data(),
                                           dst_scalar.data(), n);
        simd->residual_add_copy(h_simd.data(), residual.data(), dst_simd.data(),
                                n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(h_simd[i], h_scalar[i]);
          ASSERT_EQ(dst_simd[i], dst_scalar[i]);
        }

        h_scalar = input.values;
        h_simd = input.values;
        SumStats expected;
        SumStats got;
        scalar_kernels().residual_add_stats_rows(
            h_scalar.data(), residual.data(), 1, n, n, &expected);
        simd->residual_add_stats_rows(h_simd.data(), residual.data(), 1, n, n,
                                      &got);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(h_simd[i], h_scalar[i])
              << simd->name << " residual_add_stats_rows n=" << n << " "
              << input.name;
        }
        EXPECT_NEAR(got.sum, expected.sum, 1e-12 * sum_abs(h_scalar) + 1e-300);
        EXPECT_NEAR(got.sum_sq, expected.sum_sq,
                    1e-12 * sum_sq_abs(h_scalar) + 1e-300);
      }
    }
  }
}

TEST_F(KernelParity, NormalizeAffineWithinOneUlp) {
  for (const KernelTable* simd : simd_tables()) {
    for (const std::size_t n : kLengths) {
      for (const auto& input : input_cases(n, n + 3)) {
        common::Rng rng(n + 11);
        std::vector<float> alpha(n), beta(n);
        rng.fill_gaussian(alpha, 1.0, 0.2);
        rng.fill_gaussian(beta, 0.0, 0.5);
        const double mean = 0.125;
        const double isd = 0.75;
        for (const bool with_alpha : {false, true}) {
          for (const bool with_beta : {false, true}) {
            std::vector<float> out_scalar(n), out_simd(n);
            const float* a = with_alpha ? alpha.data() : nullptr;
            const float* b = with_beta ? beta.data() : nullptr;
            scalar_kernels().normalize_affine(input.values.data(), n, mean, isd,
                                              a, b, out_scalar.data());
            simd->normalize_affine(input.values.data(), n, mean, isd, a, b,
                                   out_simd.data());
            for (std::size_t i = 0; i < n; ++i) {
              ASSERT_LE(ulp_distance(out_simd[i], out_scalar[i]), 1)
                  << simd->name << " n=" << n << " " << input.name
                  << " alpha=" << with_alpha << " beta=" << with_beta
                  << " i=" << i << " scalar=" << out_scalar[i]
                  << " simd=" << out_simd[i];
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelParity, QuantizeDequantize) {
  for (const KernelTable* simd : simd_tables()) {
    for (const std::size_t n : kLengths) {
      for (auto& input : input_cases(n, n + 4)) {
        // Splice in edge values where the length allows.
        if (n >= 8) {
          input.values[1] = -0.0f;
          input.values[2] = 1e-41f;  // denormal
          input.values[3] = std::numeric_limits<float>::infinity();
          input.values[4] = -std::numeric_limits<float>::infinity();
          input.values[5] = std::numeric_limits<float>::quiet_NaN();
          input.values[6] = 65504.0f;
        }
        for (const auto format :
             {numerics::NumericFormat::kFP32, numerics::NumericFormat::kFP16,
              numerics::NumericFormat::kBF16, numerics::NumericFormat::kINT8}) {
          float scale = 1.0f;
          if (format == numerics::NumericFormat::kINT8) {
            scale = 0.03125f;  // fixed: choose_int8_scale rejects inf inputs
          }
          auto got_scalar = input.values;
          auto got_simd = input.values;
          scalar_kernels().quantize_dequantize(got_scalar.data(), n, format,
                                               scale);
          simd->quantize_dequantize(got_simd.data(), n, format, scale);
          for (std::size_t i = 0; i < n; ++i) {
            if (std::isnan(got_scalar[i]) || std::isnan(got_simd[i])) {
              // FP16 NaN payloads may differ between backends; NaN-ness not.
              ASSERT_TRUE(std::isnan(got_scalar[i]) && std::isnan(got_simd[i]))
                  << simd->name << " " << numerics::to_string(format)
                  << " n=" << n << " i=" << i;
              continue;
            }
            ASSERT_EQ(got_simd[i], got_scalar[i])
                << simd->name << " " << numerics::to_string(format)
                << " n=" << n << " " << input.name << " i=" << i
                << " in=" << input.values[i];
          }
        }
      }
    }
  }
}

TEST_F(KernelParity, FusedNormsWithinFourUlp) {
  for (const KernelTable* simd : simd_tables()) {
    for (const std::size_t n : kLengths) {
      common::Rng rng(n + 13);
      std::vector<float> base(n), residual(n), alpha(n), beta(n);
      rng.fill_gaussian(base, 0.3, 1.5);
      rng.fill_gaussian(residual, 0.0, 1.0);
      rng.fill_gaussian(alpha, 1.0, 0.1);
      rng.fill_gaussian(beta, 0.0, 0.2);

      for (const bool layernorm : {false, true}) {
        auto h_scalar = base;
        auto h_simd = base;
        std::vector<float> out_scalar(n), out_simd(n);
        RowNormWorkspace ws;
        if (layernorm) {
          residual_add_layernorm_rows(scalar_kernels(), 1, h_scalar, residual,
                                      alpha, beta, out_scalar, 1e-5, ws);
          residual_add_layernorm_rows(*simd, 1, h_simd, residual, alpha, beta,
                                      out_simd, 1e-5, ws);
        } else {
          residual_add_rmsnorm_rows(scalar_kernels(), 1, h_scalar, residual,
                                    alpha, beta, out_scalar, 1e-5, ws);
          residual_add_rmsnorm_rows(*simd, 1, h_simd, residual, alpha, beta,
                                    out_simd, 1e-5, ws);
        }
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(h_simd[i], h_scalar[i]);  // float adds are elementwise
          ASSERT_LE(ulp_distance(out_simd[i], out_scalar[i]), 4)
              << simd->name << (layernorm ? " layernorm" : " rmsnorm")
              << " n=" << n << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace haan::kernels
