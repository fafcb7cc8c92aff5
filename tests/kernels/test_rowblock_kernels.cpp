// Row-block kernel semantics: for every backend this machine can run, the
// *_rows kernels must be bit-identical to looping that same backend's per-row
// entry points (the row-block path adds batching, never new rounding), the
// scalar rows kernels must therefore be bit-identical to the seed per-row
// reference, and the fused row-block span entry points must equal a per-row
// fused loop exactly. Shapes include odd row counts, prime d, and subsampled
// statistics prefixes (nstats < d).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "numerics/formats.hpp"

namespace haan::kernels {
namespace {

struct BlockCase {
  std::size_t rows;
  std::size_t d;
};

// Odd row counts and prime d exercise every tail path of every backend.
const BlockCase kBlocks[] = {{1, 1}, {3, 7}, {7, 97}, {5, 256}, {9, 331}, {64, 64}};

std::vector<float> random_block(std::size_t n, std::uint64_t seed,
                                double mean = 0.1, double stddev = 1.8) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  rng.fill_gaussian(v, mean, stddev);
  return v;
}

/// Statistics prefix lengths to test for a row width d (full + subsampled).
std::vector<std::size_t> stat_lengths(std::size_t d) {
  std::vector<std::size_t> ns{d};
  if (d > 1) ns.push_back(d / 2 + 1);
  if (d > 4) ns.push_back(3);
  return ns;
}

TEST(RowBlockKernels, StatsRowsMatchesPerRowLoop) {
  for (const KernelTable* table : supported_kernels()) {
    for (const auto& block : kBlocks) {
      const auto x = random_block(block.rows * block.d, block.d);
      for (const std::size_t n : stat_lengths(block.d)) {
        std::vector<SumStats> got(block.rows);
        table->stats_rows(x.data(), block.rows, block.d, n, got.data());
        for (std::size_t r = 0; r < block.rows; ++r) {
          const SumStats expected = table->stats(x.data() + r * block.d, n);
          EXPECT_EQ(got[r].sum, expected.sum)
              << table->name << " rows=" << block.rows << " d=" << block.d
              << " n=" << n << " r=" << r;
          EXPECT_EQ(got[r].sum_sq, expected.sum_sq);
        }
      }
    }
  }
}

TEST(RowBlockKernels, CenteredSumSqRowsMatchesPerRowLoop) {
  for (const KernelTable* table : supported_kernels()) {
    for (const auto& block : kBlocks) {
      const auto x = random_block(block.rows * block.d, block.d + 1);
      std::vector<double> mean(block.rows);
      for (std::size_t r = 0; r < block.rows; ++r) {
        mean[r] = table->stats(x.data() + r * block.d, block.d).sum /
                  static_cast<double>(block.d);
      }
      std::vector<double> got(block.rows);
      table->centered_sum_sq_rows(x.data(), block.rows, block.d, block.d,
                                  mean.data(), got.data());
      for (std::size_t r = 0; r < block.rows; ++r) {
        EXPECT_EQ(got[r], table->centered_sum_sq(x.data() + r * block.d,
                                                 block.d, mean[r]))
            << table->name << " rows=" << block.rows << " d=" << block.d;
      }
    }
  }
}

TEST(RowBlockKernels, ResidualAddStatsRowsMatchesAddThenPrefixStats) {
  for (const KernelTable* table : supported_kernels()) {
    for (const auto& block : kBlocks) {
      for (const std::size_t n : stat_lengths(block.d)) {
        const auto base = random_block(block.rows * block.d, block.d + 2);
        const auto residual =
            random_block(block.rows * block.d, block.d + 3, 0.0, 0.5);

        // Reference: the seed sequence — full-block add, then per-row prefix
        // statistics over the summed values.
        auto h_ref = base;
        table->residual_add(h_ref.data(), residual.data(), h_ref.size());
        std::vector<SumStats> expected(block.rows);
        for (std::size_t r = 0; r < block.rows; ++r) {
          expected[r] = table->stats(h_ref.data() + r * block.d, n);
        }

        auto h_got = base;
        std::vector<SumStats> got(block.rows);
        table->residual_add_stats_rows(h_got.data(), residual.data(),
                                       block.rows, block.d, n, got.data());
        for (std::size_t i = 0; i < h_got.size(); ++i) {
          ASSERT_EQ(h_got[i], h_ref[i])
              << table->name << " d=" << block.d << " n=" << n << " i=" << i;
        }
        for (std::size_t r = 0; r < block.rows; ++r) {
          EXPECT_EQ(got[r].sum, expected[r].sum)
              << table->name << " d=" << block.d << " n=" << n << " r=" << r;
          EXPECT_EQ(got[r].sum_sq, expected[r].sum_sq);
        }
      }
    }
  }
}

TEST(RowBlockKernels, NormalizeAffineRowsMatchesPerRowLoopAndClamp) {
  constexpr float kSaturation = 65504.0f;
  for (const KernelTable* table : supported_kernels()) {
    for (const auto& block : kBlocks) {
      auto x = random_block(block.rows * block.d, block.d + 4);
      // Extreme isd values push some rows into the saturation range; a NaN
      // input exercises the NaN -> 0 lane.
      if (x.size() >= 4) x[2] = std::numeric_limits<float>::quiet_NaN();
      common::Rng rng(block.d + 5);
      std::vector<float> alpha(block.d), beta(block.d);
      rng.fill_gaussian(alpha, 1.0, 0.2);
      rng.fill_gaussian(beta, 0.0, 0.3);
      std::vector<double> mean(block.rows), isd(block.rows);
      for (std::size_t r = 0; r < block.rows; ++r) {
        mean[r] = 0.01 * static_cast<double>(r);
        isd[r] = (r % 3 == 0) ? 1e6 : 0.8;  // 1e6 saturates large inputs
      }
      for (const bool saturate : {false, true}) {
        std::vector<float> expected(x.size()), got(x.size());
        for (std::size_t r = 0; r < block.rows; ++r) {
          float* out_r = expected.data() + r * block.d;
          table->normalize_affine(x.data() + r * block.d, block.d, mean[r],
                                  isd[r], alpha.data(), beta.data(), out_r);
          if (saturate) {
            for (std::size_t i = 0; i < block.d; ++i) {
              const float v = out_r[i];
              out_r[i] = std::isnan(v)
                             ? 0.0f
                             : std::clamp(v, -kSaturation, kSaturation);
            }
          }
        }
        table->normalize_affine_rows(x.data(), block.rows, block.d, mean.data(),
                                     isd.data(), alpha.data(), beta.data(),
                                     got.data(), saturate);
        for (std::size_t i = 0; i < x.size(); ++i) {
          if (std::isnan(expected[i]) || std::isnan(got[i])) {
            ASSERT_TRUE(std::isnan(expected[i]) && std::isnan(got[i]));
            continue;
          }
          ASSERT_EQ(got[i], expected[i])
              << table->name << " d=" << block.d << " saturate=" << saturate
              << " i=" << i;
        }
      }
    }
  }
}

TEST(RowBlockKernels, QuantizeDequantizeRowsMatchesPerRowLoop) {
  for (const KernelTable* table : supported_kernels()) {
    for (const auto& block : kBlocks) {
      for (const auto format :
           {numerics::NumericFormat::kINT8, numerics::NumericFormat::kFP16,
            numerics::NumericFormat::kBF16}) {
        const auto base = random_block(block.rows * block.d, block.d + 6);
        std::vector<float> scales(block.rows);
        for (std::size_t r = 0; r < block.rows; ++r) {
          scales[r] = numerics::choose_int8_scale(
              std::span(base.data() + r * block.d, block.d));
        }
        auto expected = base;
        for (std::size_t r = 0; r < block.rows; ++r) {
          table->quantize_dequantize(expected.data() + r * block.d, block.d,
                                     format, scales[r]);
        }
        auto got = base;
        table->quantize_dequantize_rows(got.data(), block.rows, block.d, format,
                                        scales.data());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expected[i])
              << table->name << " " << numerics::to_string(format)
              << " d=" << block.d << " i=" << i;
        }
      }
    }
  }
}

TEST(RowBlockKernels, FusedRowsEntryPointsMatchPerRowFusedLoop) {
  for (const KernelTable* table : supported_kernels()) {
    for (const auto& block : kBlocks) {
      common::Rng rng(block.d + 7);
      std::vector<float> alpha(block.d), beta(block.d);
      rng.fill_gaussian(alpha, 1.0, 0.1);
      rng.fill_gaussian(beta, 0.0, 0.2);
      const auto base = random_block(block.rows * block.d, block.d + 8);
      const auto residual =
          random_block(block.rows * block.d, block.d + 9, 0.0, 0.4);

      for (const bool layernorm : {false, true}) {
        auto h_ref = base;
        std::vector<float> out_ref(base.size());
        for (std::size_t r = 0; r < block.rows; ++r) {
          const auto h_row = std::span(h_ref).subspan(r * block.d, block.d);
          const auto res_row =
              std::span(residual).subspan(r * block.d, block.d);
          const auto out_row =
              std::span(out_ref).subspan(r * block.d, block.d);
          if (layernorm) {
            residual_add_layernorm(*table, h_row, res_row, alpha, beta, out_row,
                                   1e-5);
          } else {
            residual_add_rmsnorm(*table, h_row, res_row, alpha, beta, out_row,
                                 1e-5);
          }
        }

        auto h_got = base;
        std::vector<float> out_got(base.size());
        RowNormWorkspace ws;
        if (layernorm) {
          residual_add_layernorm_rows(*table, block.rows, h_got, residual,
                                      alpha, beta, out_got, 1e-5, ws);
        } else {
          residual_add_rmsnorm_rows(*table, block.rows, h_got, residual, alpha,
                                    beta, out_got, 1e-5, ws);
        }
        for (std::size_t i = 0; i < base.size(); ++i) {
          ASSERT_EQ(h_got[i], h_ref[i]);
          ASSERT_EQ(out_got[i], out_ref[i])
              << table->name << (layernorm ? " layernorm" : " rmsnorm")
              << " rows=" << block.rows << " d=" << block.d << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace haan::kernels
