// Bit-identity contract of the exp kernels (kernels.hpp): every runnable
// kernel table's exp must return std::exp's bits on a strided sample of all
// finite floats with |x| < 88 plus the edge inputs (zeros, the non-FMA probe
// inputs, the libm-fallback boundary at |x| = 88, subnormal results, inf,
// NaN), and its softmax and silu must be bit-identical (memcmp) to inline
// replicas of the seed loops, including rows that send lanes to libm. A row
// computed alone must equal the same row inside a longer buffer.
// bench/exp_exhaustive checks exp over all 2^32 inputs.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernels.hpp"

namespace haan::kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

const std::size_t kLengths[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11,
                                12, 13, 14, 15, 16, 17, 72, 144, 193};

/// std::exp through a volatile read, so the compiler cannot fold a constant
/// argument (its folding is correctly rounded; libm's expf is not).
float libm_exp(float x) {
  const volatile float input = x;
  return std::exp(input);
}

/// The seed's tensor::softmax loop.
void seed_softmax(std::vector<float>& row) {
  float max_v = -kInf;
  for (const float v : row) max_v = std::max(max_v, v);
  double sum = 0.0;
  for (float& v : row) {
    v = libm_exp(v - max_v);
    sum += v;
  }
  for (float& v : row) v = static_cast<float>(v / sum);
}

/// The seed's tensor::silu_inplace loop.
void seed_silu(std::vector<float>& v) {
  for (float& x : v) x = x / (1.0f + libm_exp(-x));
}

std::vector<float> random_values(std::size_t n, double stddev,
                                 std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  rng.fill_gaussian(v, 0.0, stddev);
  return v;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// First index where a and b differ in bits, rendered for failure messages.
std::string first_difference(const std::vector<float>& in,
                             const std::vector<float>& a,
                             const std::vector<float>& b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(a[i]) != std::bit_cast<std::uint32_t>(b[i])) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "i=%zu in=%a got=%a want=%a", i,
                    static_cast<double>(in[i]), static_cast<double>(a[i]),
                    static_cast<double>(b[i]));
      return buf;
    }
  }
  return "none";
}

/// Inputs around every branch of the expf model and its libm fallback.
std::vector<float> edge_inputs() {
  std::vector<float> v = {
      0.0f, -0.0f, 1.0f, -1.0f,
      0x1.04845ep+5f, -0x1.f8cbb2p+5f,  // where the non-FMA expf differs
      std::nextafter(88.0f, 0.0f), 88.0f, std::nextafter(88.0f, kInf),
      -std::nextafter(88.0f, 0.0f), -88.0f, -std::nextafter(88.0f, kInf),
      0x1.62e42ep6f, 0x1.62e430p6f,    // last finite result / overflow
      -87.3f, -87.3365f, -87.5f, -87.9f,  // subnormal results
      -100.0f, -0x1.9fe368p6f, -104.0f, -1000.0f,  // deep underflow
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::numeric_limits<float>::min(), std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest(),
      kInf, -kInf, kNaN, -kNaN,
      std::numeric_limits<float>::signaling_NaN(),
  };
  return v;
}

TEST(ExpParity, StridedSampleAndEdgesMatchLibm) {
  std::vector<float> inputs = edge_inputs();
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    const auto bits = static_cast<std::uint32_t>(u);
    if ((bits & 0x7FFFFFFFu) < 0x42B00000u) {  // finite, |x| < 88
      inputs.push_back(std::bit_cast<float>(bits));
    }
  }
  ASSERT_GT(inputs.size(), 540000u);
  std::vector<float> expected(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    expected[i] = libm_exp(inputs[i]);
  }
  for (const KernelTable* table : supported_kernels()) {
    SCOPED_TRACE(table->name);
    std::vector<float> out(inputs.size());
    table->exp(inputs.data(), inputs.size(), out.data());
    EXPECT_TRUE(same_bits(out, expected))
        << first_difference(inputs, out, expected);
    // In place, from an odd offset, so every tail length is exercised.
    std::vector<float> in_place(inputs.begin() + 3, inputs.end());
    table->exp(in_place.data(), in_place.size(), in_place.data());
    EXPECT_TRUE(same_bits(
        in_place, std::vector<float>(expected.begin() + 3, expected.end())));
  }
}

/// Rows for softmax: ordinary attention-like scores, rows whose small scores
/// fall more than 88 below the max (libm fallback, underflow to 0), masked
/// -inf scores, signed-zero maxima and large magnitudes.
std::vector<std::vector<float>> softmax_rows(std::size_t n, std::uint64_t seed) {
  std::vector<std::vector<float>> rows;
  rows.push_back(random_values(n, 3.0, seed));
  std::vector<float> spread = random_values(n, 60.0, seed + 1);
  spread[n / 2] = 120.0f;  // everything else lands below max - 88
  rows.push_back(spread);
  std::vector<float> masked = random_values(n, 2.0, seed + 2);
  for (std::size_t i = 1; i < n; i += 3) masked[i] = -kInf;
  rows.push_back(masked);
  std::vector<float> zeros = random_values(n, 1.0, seed + 3);
  for (float& v : zeros) v = -std::abs(v);
  zeros[0] = -0.0f;
  zeros[n - 1] = 0.0f;
  rows.push_back(zeros);
  std::vector<float> large = random_values(n, 1e4, seed + 4);
  rows.push_back(large);
  return rows;
}

TEST(ExpParity, SoftmaxMatchesSeedLoop) {
  for (const KernelTable* table : supported_kernels()) {
    SCOPED_TRACE(table->name);
    for (const std::size_t n : kLengths) {
      for (const std::vector<float>& row : softmax_rows(n, 100 + n)) {
        std::vector<float> expected = row;
        seed_softmax(expected);
        std::vector<float> got = row;
        table->softmax(got.data(), got.size());
        EXPECT_TRUE(same_bits(got, expected))
            << "n=" << n << " " << first_difference(row, got, expected);
      }
    }
  }
}

TEST(ExpParity, SiluMatchesSeedLoop) {
  for (const KernelTable* table : supported_kernels()) {
    SCOPED_TRACE(table->name);
    for (const std::size_t n : kLengths) {
      std::vector<std::vector<float>> blocks = {random_values(n, 2.0, 200 + n),
                                                random_values(n, 60.0, 300 + n)};
      // Non-finite values and the fallback boundary inside a block.
      std::vector<float> special = random_values(n, 4.0, 400 + n);
      const std::vector<float> edges = edge_inputs();
      for (std::size_t i = 0; i < n; i += 2) {
        special[i] = edges[(i / 2 + n) % edges.size()];
      }
      blocks.push_back(special);
      for (const std::vector<float>& block : blocks) {
        std::vector<float> expected = block;
        seed_silu(expected);
        std::vector<float> got = block;
        table->silu(got.data(), got.size());
        EXPECT_TRUE(same_bits(got, expected))
            << "n=" << n << " " << first_difference(block, got, expected);
      }
    }
  }
}

TEST(ExpParity, RowAloneEqualsRowInsideLongerBuffer) {
  constexpr std::size_t kPad = 5;
  for (const KernelTable* table : supported_kernels()) {
    SCOPED_TRACE(table->name);
    for (const std::size_t n : kLengths) {
      const std::vector<float> row = random_values(n, 3.0, 500 + n);
      // Softmax of the row alone vs the same values at an unaligned offset
      // inside a buffer whose neighbours must stay untouched.
      std::vector<float> alone = row;
      table->softmax(alone.data(), n);
      std::vector<float> buffer = random_values(n + 2 * kPad, 50.0, 600 + n);
      const std::vector<float> before = buffer;
      std::copy(row.begin(), row.end(), buffer.begin() + kPad);
      table->softmax(buffer.data() + kPad, n);
      EXPECT_TRUE(same_bits(
          alone, std::vector<float>(buffer.begin() + kPad,
                                    buffer.begin() + kPad + n)))
          << "softmax n=" << n;
      EXPECT_TRUE(std::equal(before.begin(), before.begin() + kPad,
                             buffer.begin()));
      EXPECT_TRUE(std::equal(before.end() - kPad, before.end(),
                             buffer.end() - kPad));

      // SiLU over the whole buffer vs the row alone.
      std::vector<float> silu_alone = row;
      table->silu(silu_alone.data(), n);
      std::vector<float> whole = buffer;
      std::copy(row.begin(), row.end(), whole.begin() + kPad);
      table->silu(whole.data(), whole.size());
      EXPECT_TRUE(same_bits(
          silu_alone, std::vector<float>(whole.begin() + kPad,
                                         whole.begin() + kPad + n)))
          << "silu n=" << n;
    }
  }
}

}  // namespace
}  // namespace haan::kernels
