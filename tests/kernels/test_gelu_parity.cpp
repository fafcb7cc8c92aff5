// Bit-identity contract of the gelu kernel (kernels.hpp): every runnable
// kernel table's gelu must be bit-identical (memcmp) to an inline replica of
// the seed's tensor::gelu_inplace loop, whose tanh is libm's tanhf. Inputs:
// zeros, subnormals, inf and NaN; values of v whose tanh argument lands on
// each branch edge of fdlibm's tanhf and expm1f (tanhf_model.hpp), from
// both sides; v large enough that v^3 overflows; a strided sample of all
// floats; and Gaussian rows of every length from 1 to 33 and 1000, so every
// tail-lane count runs. A row computed alone must equal the same row inside
// a longer buffer, and tensor::gelu_inplace must equal the seed loop.
// bench/exp_exhaustive checks gelu over all 2^32 inputs.
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
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace haan::kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

/// std::tanh through a volatile read, so the compiler cannot fold a constant
/// argument (its folding is correctly rounded; libm's tanhf is not).
float libm_tanh(float x) {
  const volatile float input = x;
  return std::tanh(input);
}

/// The seed loop's tanh argument.
float seed_inner(float v) {
  constexpr float kSqrt2OverPi = 0.7978845608028654f;
  return kSqrt2OverPi * (v + 0.044715f * v * v * v);
}

/// The seed's tensor::gelu_inplace loop.
void seed_gelu(std::vector<float>& values) {
  for (float& v : values) v = 0.5f * v * (1.0f + libm_tanh(seed_inner(v)));
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
    if (std::bit_cast<std::uint32_t>(a[i]) !=
        std::bit_cast<std::uint32_t>(b[i])) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "i=%zu in=%a got=%a want=%a", i,
                    static_cast<double>(in[i]), static_cast<double>(a[i]),
                    static_cast<double>(b[i]));
      return buf;
    }
  }
  return "none";
}

/// The smallest non-negative float v with seed_inner(v) >= target (inner is
/// non-decreasing in v: every step is a monotone rounding).
float v_at_inner(float target) {
  std::uint32_t lo = 0;
  std::uint32_t hi = std::bit_cast<std::uint32_t>(kInf);
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (seed_inner(std::bit_cast<float>(mid)) >= target) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::bit_cast<float>(lo);
}

/// The smallest positive float x whose expm1f(2x) reduces with index
/// (int)(2x / ln2 + 0.5) >= k, fdlibm's float arithmetic.
float x_at_k(int k) {
  std::uint32_t lo = 0;
  std::uint32_t hi = std::bit_cast<std::uint32_t>(22.0f);
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const float u = 2.0f * std::bit_cast<float>(mid);
    if (static_cast<int>(u * 0x1.715476p+0f + 0.5f) >= k) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return std::bit_cast<float>(lo);
}

/// tanh arguments at the branch edges of fdlibm's tanhf and of the expm1f
/// it calls on u = +-2|x| (so the expm1f edges are halved).
std::vector<float> tanh_branch_edges() {
  const auto half_of = [](std::uint32_t bits) {
    return std::bit_cast<float>(bits) * 0.5f;
  };
  return {
      0x1p-55f,             // tanhf: x * (1 + x) below
      0x1p-26f,             // expm1f: |u| < 2^-25 returns u
      half_of(0x3eb17218),  // expm1f: 0.5 ln2, k = 0 up to here
      half_of(0x3f851592),  // expm1f: 1.5 ln2, k = -1 band below
      1.0f,                 // tanhf: expm1f(2|x|) from here
      x_at_k(23),           // expm1f: 1 - 2^-k below, 2^-k from here
      half_of(0x4195b844),  // expm1f: 27 ln2
      x_at_k(57),           // expm1f: exponent-add only from here
      22.0f,                // tanhf: 1 from here
      kInf,                 // inner overflows to inf
  };
}

/// Specials, branch-edge neighbourhoods (both signs) and overflowing cubes.
std::vector<float> edge_inputs() {
  std::vector<float> v = {
      0.0f, -0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      0x1.234p-140f, -0x1.234p-140f,
      std::nextafter(std::numeric_limits<float>::min(), 0.0f),
      -std::nextafter(std::numeric_limits<float>::min(), 0.0f),
      std::numeric_limits<float>::min(), -std::numeric_limits<float>::min(),
      3e13f, -3e13f, 1e20f, -1e20f,  // v^3 overflows
      std::numeric_limits<float>::max(), std::numeric_limits<float>::lowest(),
      kInf, -kInf, kNaN, -kNaN, std::numeric_limits<float>::signaling_NaN(),
  };
  for (const float target : tanh_branch_edges()) {
    const auto bits = std::bit_cast<std::uint32_t>(v_at_inner(target));
    for (std::uint32_t b = bits - 4; b <= bits + 4; ++b) {
      const float x = std::bit_cast<float>(b);
      if (std::isnan(x)) continue;
      v.push_back(x);
      v.push_back(-x);
    }
  }
  return v;
}

TEST(GeluParity, BranchEdgesLandWhereIntended) {
  // Each edge's neighbourhood must straddle it, or the edge cases test
  // nothing: the first v reaches the target, the one below does not.
  for (const float target : tanh_branch_edges()) {
    const float v = v_at_inner(target);
    EXPECT_GE(seed_inner(v), target) << target;
    EXPECT_LT(seed_inner(std::nextafter(v, 0.0f)), target) << target;
  }
}

TEST(GeluParity, EdgesAndStridedSampleMatchSeedLoop) {
  std::vector<float> inputs = edge_inputs();
  for (std::uint64_t u = 0; u < (std::uint64_t{1} << 32); u += 4099) {
    inputs.push_back(std::bit_cast<float>(static_cast<std::uint32_t>(u)));
  }
  ASSERT_GT(inputs.size(), 1000000u);
  std::vector<float> expected = inputs;
  seed_gelu(expected);
  for (const KernelTable* table : supported_kernels()) {
    SCOPED_TRACE(table->name);
    std::vector<float> got = inputs;
    table->gelu(got.data(), got.size());
    EXPECT_TRUE(same_bits(got, expected))
        << first_difference(inputs, got, expected);
  }
}

std::vector<std::size_t> lengths() {
  std::vector<std::size_t> n(33);
  for (std::size_t i = 0; i < n.size(); ++i) n[i] = i + 1;
  n.push_back(1000);
  return n;
}

TEST(GeluParity, GaussianRowsOfEveryTailLengthMatchSeedLoop) {
  const std::vector<float> edges = edge_inputs();
  for (const KernelTable* table : supported_kernels()) {
    SCOPED_TRACE(table->name);
    for (const std::size_t n : lengths()) {
      // MLP activations (stddev 1), wide ones that reach |inner| >= 22, and
      // a row with specials and branch edges mixed in.
      std::vector<std::vector<float>> rows = {random_values(n, 1.0, 100 + n),
                                              random_values(n, 12.0, 200 + n)};
      std::vector<float> special = random_values(n, 3.0, 300 + n);
      for (std::size_t i = 0; i < n; i += 2) {
        special[i] = edges[(i / 2 + n) % edges.size()];
      }
      rows.push_back(special);
      for (const std::vector<float>& row : rows) {
        std::vector<float> expected = row;
        seed_gelu(expected);
        std::vector<float> got = row;
        table->gelu(got.data(), got.size());
        EXPECT_TRUE(same_bits(got, expected))
            << "n=" << n << " " << first_difference(row, got, expected);
      }
    }
  }
}

TEST(GeluParity, RowAloneEqualsRowInsideLongerBuffer) {
  constexpr std::size_t kPad = 5;
  for (const KernelTable* table : supported_kernels()) {
    SCOPED_TRACE(table->name);
    for (const std::size_t n : lengths()) {
      const std::vector<float> row = random_values(n, 2.0, 400 + n);
      std::vector<float> alone = row;
      table->gelu(alone.data(), n);
      // The row at an unaligned offset: its neighbours must stay untouched.
      std::vector<float> buffer = random_values(n + 2 * kPad, 2.0, 500 + n);
      std::copy(row.begin(), row.end(), buffer.begin() + kPad);
      const std::vector<float> before = buffer;
      table->gelu(buffer.data() + kPad, n);
      EXPECT_TRUE(same_bits(
          alone, std::vector<float>(buffer.begin() + kPad,
                                    buffer.begin() + kPad + n)))
          << "n=" << n;
      EXPECT_TRUE(std::equal(before.begin(), before.begin() + kPad,
                             buffer.begin()));
      EXPECT_TRUE(std::equal(before.end() - kPad, before.end(),
                             buffer.end() - kPad));
      // Split into two calls at every point: the same bits as one call.
      for (std::size_t split = 1; split < n && n <= 33; ++split) {
        std::vector<float> parts = row;
        table->gelu(parts.data(), split);
        table->gelu(parts.data() + split, n - split);
        EXPECT_TRUE(same_bits(parts, alone)) << "n=" << n << " split=" << split;
      }
    }
  }
}

TEST(GeluParity, TensorGeluInplaceMatchesSeedLoop) {
  tensor::Tensor t(tensor::Shape{7, 384});
  const std::vector<float> values = random_values(t.data().size(), 1.5, 600);
  std::copy(values.begin(), values.end(), t.data().begin());
  tensor::gelu_inplace(t);
  std::vector<float> expected = values;
  seed_gelu(expected);
  EXPECT_TRUE(same_bits(std::vector<float>(t.data().begin(), t.data().end()),
                        expected));
}

}  // namespace
}  // namespace haan::kernels
