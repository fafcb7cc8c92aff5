// Exact-order contract of the linear kernel (kernels.hpp): every runnable
// kernel table's linear, fed the input-major transpose W^T of a row-major W,
// must be bit-identical (memcmp) to an inline replica of the seed loop over W,
// for every shape, and a row computed alone must equal the same row inside a
// large call. Row counts cover both sides of every backend's direct-read /
// widened-panel crossover (8 rows on AVX-512, 4 on AVX2), each with every
// 4-row register-tile remainder; output counts cover the column-block tails
// of every backend, and reduction lengths are not all multiples of any
// vector width. The row-major tensor::linear adapter must equal the seed
// loop too.
// Non-finite inputs must produce NaN at the same positions and bit-identical
// values (Inf included) everywhere else.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "tensor/ops.hpp"

namespace haan::kernels {
namespace {

const std::size_t kRows[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 33, 288};
const std::size_t kIns[] = {1, 13, 64, 96, 170, 384};
const std::size_t kOuts[] = {1, 7, 16, 17, 33, 64, 65, 170, 384, 512};

std::vector<float> random_values(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  rng.fill_gaussian(v, 0.05, 1.3);
  return v;
}

/// The (cols x rows) transpose of a row-major (rows x cols) matrix.
std::vector<float> transposed(const std::vector<float>& m, std::size_t rows,
                              std::size_t cols) {
  std::vector<float> t(m.size());
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) t[c * rows + r] = m[r * cols + c];
  }
  return t;
}

/// The seed's tensor::linear loop over a row-major (out x in) w.
std::vector<float> seed_linear(const std::vector<float>& x, std::size_t n,
                               std::size_t in, const std::vector<float>& w,
                               std::size_t out, const float* bias) {
  std::vector<float> y(n * out);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t o = 0; o < out; ++o) {
      double acc = bias == nullptr ? 0.0 : bias[o];
      for (std::size_t p = 0; p < in; ++p) {
        acc += static_cast<double>(x[i * in + p]) *
               static_cast<double>(w[o * in + p]);
      }
      y[i * out + o] = static_cast<float>(acc);
    }
  }
  return y;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// NaN at the same positions; every other element bit-identical. `want`
/// must hold at least one NaN and one Inf, or the case tests nothing.
void expect_same_nonfinite(const std::vector<float>& got,
                           const std::vector<float>& want,
                           const std::string& where) {
  std::size_t nans = 0;
  std::size_t infs = 0;
  for (const float v : want) {
    nans += std::isnan(v) ? 1 : 0;
    infs += std::isinf(v) ? 1 : 0;
  }
  ASSERT_GT(nans, 0u);
  ASSERT_GT(infs, 0u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::isnan(got[i]), std::isnan(want[i])) << where << " at " << i;
    if (!std::isnan(want[i])) {
      ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
          << where << " at " << i << ": " << got[i] << " vs " << want[i];
    }
  }
}

TEST(LinearParity, EveryTableMatchesTheSeedLoopBitForBit) {
  for (const std::size_t in : kIns) {
    for (const std::size_t out : kOuts) {
      const auto w = random_values(out * in, in * 1000 + out);
      const auto wt = transposed(w, out, in);
      const auto bias = random_values(out, out + 7);
      for (const std::size_t n : kRows) {
        const auto x = random_values(n * in, n * 31 + in);
        for (const bool with_bias : {false, true}) {
          const float* b = with_bias ? bias.data() : nullptr;
          const auto want = seed_linear(x, n, in, w, out, b);
          for (const KernelTable* table : supported_kernels()) {
            std::vector<float> got(n * out, -1.0f);
            table->linear(x.data(), n, in, wt.data(), out, b, got.data());
            ASSERT_TRUE(same_bits(got, want))
                << table->name << " n=" << n << " in=" << in << " out=" << out
                << " bias=" << with_bias;
          }
        }
      }
    }
  }
}

/// Makes every dot product of x's rows with w's rows order-sensitive: the
/// first and last reduction terms are a huge product (~2^50) and its exact
/// negation, so every term in between is added to a partial sum whose double
/// ulp (~1/8) is visible in the float result.
void make_cancelling(std::vector<float>& x, std::size_t n,
                     std::vector<float>& w, std::size_t out, std::size_t in) {
  constexpr float kHuge = 33554432.0f;  // 2^25
  for (std::size_t i = 0; i < n; ++i) {
    x[i * in] = kHuge;
    x[i * in + in - 1] = kHuge;
  }
  for (std::size_t o = 0; o < out; ++o) {
    w[o * in] = kHuge * (1.0f + 0.25f * static_cast<float>(o % 7));
    w[o * in + in - 1] = -w[o * in];
  }
}

TEST(LinearParity, CancellingSumsKeepTheAscendingOrder) {
  for (const std::size_t in : {13u, 64u, 170u}) {
    for (const std::size_t out : {7u, 17u, 64u}) {
      for (const std::size_t n : {1u, 9u, 33u}) {
        auto x = random_values(n * in, n + in);
        auto w = random_values(out * in, out + in);
        make_cancelling(x, n, w, out, in);
        const auto want = seed_linear(x, n, in, w, out, nullptr);
        // The case has teeth: summing in descending order changes results.
        std::vector<float> x_rev(x.size());
        std::vector<float> w_rev(w.size());
        for (std::size_t p = 0; p < in; ++p) {
          const std::size_t back = in - 1 - p;
          for (std::size_t i = 0; i < n; ++i) {
            x_rev[i * in + p] = x[i * in + back];
          }
          for (std::size_t o = 0; o < out; ++o) {
            w_rev[o * in + p] = w[o * in + back];
          }
        }
        const auto reversed = seed_linear(x_rev, n, in, w_rev, out, nullptr);
        ASSERT_FALSE(same_bits(reversed, want))
            << "in=" << in << " out=" << out << " n=" << n;
        const auto wt = transposed(w, out, in);
        for (const KernelTable* table : supported_kernels()) {
          std::vector<float> got(n * out);
          table->linear(x.data(), n, in, wt.data(), out, nullptr, got.data());
          ASSERT_TRUE(same_bits(got, want))
              << table->name << " n=" << n << " in=" << in << " out=" << out;
        }
      }
    }
  }
}

TEST(LinearParity, ARowAloneEqualsTheSameRowInsideA288RowCall) {
  constexpr std::size_t kBatch = 288;
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {64, 170}, {170, 64}, {13, 17}, {96, 384}, {64, 65}};
  for (const auto& [in, out] : shapes) {
    const auto x = random_values(kBatch * in, in + 3);
    const auto wt = random_values(in * out, out + 5);
    const auto bias = random_values(out, 11);
    for (const KernelTable* table : supported_kernels()) {
      std::vector<float> batch(kBatch * out);
      table->linear(x.data(), kBatch, in, wt.data(), out, bias.data(),
                    batch.data());
      std::vector<float> alone(out);
      for (std::size_t r = 0; r < kBatch; ++r) {
        table->linear(x.data() + r * in, 1, in, wt.data(), out, bias.data(),
                      alone.data());
        ASSERT_EQ(std::memcmp(alone.data(), batch.data() + r * out,
                              out * sizeof(float)),
                  0)
            << table->name << " in=" << in << " out=" << out << " row=" << r;
      }
    }
  }
}

TEST(LinearParity, NonFiniteInputsPropagateToTheSamePositions) {
  constexpr std::size_t n = 9, in = 37, out = 40;
  auto x = random_values(n * in, 1);
  auto w = random_values(out * in, 2);
  const float inf = std::numeric_limits<float>::infinity();
  x[0 * in + 5] = inf;                                     // row 0: +Inf terms
  x[3 * in + 2] = std::numeric_limits<float>::quiet_NaN();  // row 3: NaN
  x[5 * in + 0] = -inf;
  w[7 * in + 0] = 0.0f;   // -Inf * 0 -> NaN in row 5, output 7
  w[9 * in + 5] = -1.0f;  // keeps row 0 finite-signed per output
  x[8 * in + 10] = 3.0e38f;  // float overflow in the double sum -> Inf
  w[12 * in + 10] = 3.0e38f;
  const auto want = seed_linear(x, n, in, w, out, nullptr);
  const auto wt = transposed(w, out, in);
  for (const KernelTable* table : supported_kernels()) {
    std::vector<float> got(n * out);
    table->linear(x.data(), n, in, wt.data(), out, nullptr, got.data());
    expect_same_nonfinite(got, want, table->name);
  }
}

TEST(LinearParity, RowMajorAdapterMatchesTheSeedLoopBitForBit) {
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {96, 512}, {64, 170}, {170, 64}, {13, 33}};
  for (const auto& [in, out] : shapes) {
    const auto w = random_values(out * in, in + out);
    const auto bias = random_values(out, out);
    for (const std::size_t n : {1u, 3u, 4u, 33u}) {
      const auto x = random_values(n * in, n + in);
      const tensor::Tensor x_tensor(tensor::Shape{n, in}, x);
      const tensor::Tensor w_tensor(tensor::Shape{out, in}, w);
      const tensor::Tensor y = tensor::linear(x_tensor, w_tensor, bias);
      const std::vector<float> got(y.data().begin(), y.data().end());
      ASSERT_TRUE(same_bits(got, seed_linear(x, n, in, w, out, bias.data())))
          << "n=" << n << " in=" << in << " out=" << out;
    }
  }
}

}  // namespace
}  // namespace haan::kernels
