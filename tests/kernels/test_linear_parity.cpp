// Exact-order contract of the matmul kernels (kernels.hpp): every runnable
// kernel table's linear, attention_scores and attention_context must be
// bit-identical (memcmp) to an inline replica of the seed loops, for every
// shape, and a row computed alone must equal the same row inside a large
// call. Shapes cover single rows, register-tile remainders, output-block
// tails and reduction lengths that are not a multiple of any vector width.
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

namespace haan::kernels {
namespace {

const std::size_t kRows[] = {1, 2, 3, 7, 8, 9, 33, 288};
const std::size_t kIns[] = {1, 13, 64, 96, 170, 384};
const std::size_t kOuts[] = {1, 7, 16, 17, 64, 170, 384, 512};

std::vector<float> random_values(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  rng.fill_gaussian(v, 0.05, 1.3);
  return v;
}

/// The seed's tensor::linear loop.
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

/// The seed attention score loop: scale * (float)tensor::dot(q, k_j), with
/// the keys stored transposed (kt is d_head x ld).
std::vector<float> seed_scores(const std::vector<float>& q,
                               const std::vector<float>& kt, std::size_t ld,
                               std::size_t ctx, float scale) {
  const std::size_t d_head = q.size();
  std::vector<float> scores(ctx);
  for (std::size_t j = 0; j < ctx; ++j) {
    double acc = 0.0;
    for (std::size_t c = 0; c < d_head; ++c) {
      acc += static_cast<double>(q[c]) * static_cast<double>(kt[c * ld + j]);
    }
    scores[j] = scale * static_cast<float>(acc);
  }
  return scores;
}

/// The seed P·V loop: ascending j, exact-zero weights skipped, float
/// multiply then add.
void seed_context(const std::vector<float>& p, const std::vector<float>& v,
                  std::size_t ld, std::size_t d_head, std::vector<float>& out) {
  for (std::size_t j = 0; j < p.size(); ++j) {
    if (p[j] == 0.0f) continue;
    for (std::size_t c = 0; c < d_head; ++c) out[c] += p[j] * v[j * ld + c];
  }
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
      const auto bias = random_values(out, out + 7);
      for (const std::size_t n : kRows) {
        const auto x = random_values(n * in, n * 31 + in);
        for (const bool with_bias : {false, true}) {
          const float* b = with_bias ? bias.data() : nullptr;
          const auto want = seed_linear(x, n, in, w, out, b);
          for (const KernelTable* table : supported_kernel_variants()) {
            std::vector<float> got(n * out, -1.0f);
            table->linear(x.data(), n, in, w.data(), out, b, got.data());
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
        for (const KernelTable* table : supported_kernel_variants()) {
          std::vector<float> got(n * out);
          table->linear(x.data(), n, in, w.data(), out, nullptr, got.data());
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
      {64, 170}, {170, 64}, {13, 17}, {96, 384}};
  for (const auto& [in, out] : shapes) {
    const auto x = random_values(kBatch * in, in + 3);
    const auto w = random_values(out * in, out + 5);
    const auto bias = random_values(out, 11);
    for (const KernelTable* table : supported_kernel_variants()) {
      std::vector<float> batch(kBatch * out);
      table->linear(x.data(), kBatch, in, w.data(), out, bias.data(),
                    batch.data());
      std::vector<float> alone(out);
      for (std::size_t r = 0; r < kBatch; ++r) {
        table->linear(x.data() + r * in, 1, in, w.data(), out, bias.data(),
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
  for (const KernelTable* table : supported_kernel_variants()) {
    std::vector<float> got(n * out);
    table->linear(x.data(), n, in, w.data(), out, nullptr, got.data());
    expect_same_nonfinite(got, want, table->name);
  }
}

std::vector<std::size_t> score_contexts() {
  std::vector<std::size_t> ctxs;
  for (std::size_t c = 1; c <= 17; ++c) ctxs.push_back(c);
  ctxs.push_back(144);
  ctxs.push_back(192);
  return ctxs;
}

TEST(AttentionScoreParity, EveryTableMatchesTheSeedLoopBitForBit) {
  for (const std::size_t d_head : {1u, 7u, 16u, 24u}) {
    for (const std::size_t ctx : score_contexts()) {
      const std::size_t ld = ctx + 3;  // transposed buffers may be wider
      const auto q = random_values(d_head, d_head);
      const auto kt = random_values(d_head * ld, ctx * 7 + d_head);
      const float scale = 1.0f / std::sqrt(static_cast<float>(d_head));
      const auto want = seed_scores(q, kt, ld, ctx, scale);
      for (const KernelTable* table : supported_kernel_variants()) {
        std::vector<float> got(ctx);
        table->attention_scores(q.data(), d_head, kt.data(), ld, ctx, scale,
                                got.data());
        ASSERT_TRUE(same_bits(got, want))
            << table->name << " d_head=" << d_head << " ctx=" << ctx;
      }
    }
  }
}

TEST(AttentionScoreParity, CancellingSumsKeepTheAscendingOrder) {
  for (const std::size_t d_head : {16u, 24u}) {
    for (const std::size_t ctx : score_contexts()) {
      auto q = random_values(d_head, d_head + 1);
      // kt viewed as ctx rows of d_head: key j is row j of the transpose.
      auto k = random_values(ctx * d_head, ctx + 2);
      make_cancelling(q, 1, k, ctx, d_head);
      std::vector<float> kt(d_head * ctx);
      for (std::size_t j = 0; j < ctx; ++j) {
        for (std::size_t c = 0; c < d_head; ++c) {
          kt[c * ctx + j] = k[j * d_head + c];
        }
      }
      const auto want = seed_scores(q, kt, ctx, ctx, 0.25f);
      for (const KernelTable* table : supported_kernel_variants()) {
        std::vector<float> got(ctx);
        table->attention_scores(q.data(), d_head, kt.data(), ctx, ctx, 0.25f,
                                got.data());
        ASSERT_TRUE(same_bits(got, want))
            << table->name << " d_head=" << d_head << " ctx=" << ctx;
      }
    }
  }
}

TEST(AttentionScoreParity, AShortPrefixEqualsTheSameKeysInsideALongCall) {
  constexpr std::size_t kKeys = 192, kHead = 24;
  const auto q = random_values(kHead, 3);
  const auto kt = random_values(kHead * kKeys, 4);
  for (const KernelTable* table : supported_kernel_variants()) {
    std::vector<float> full(kKeys);
    table->attention_scores(q.data(), kHead, kt.data(), kKeys, kKeys, 0.25f,
                            full.data());
    for (const std::size_t ctx : score_contexts()) {
      std::vector<float> prefix(ctx);
      table->attention_scores(q.data(), kHead, kt.data(), kKeys, ctx, 0.25f,
                              prefix.data());
      ASSERT_EQ(std::memcmp(prefix.data(), full.data(), ctx * sizeof(float)), 0)
          << table->name << " ctx=" << ctx;
    }
  }
}

TEST(AttentionScoreParity, NonFiniteKeysPropagateToTheSamePositions) {
  constexpr std::size_t kHead = 16, kKeys = 41;
  auto q = random_values(kHead, 5);
  auto kt = random_values(kHead * kKeys, 6);
  const float inf = std::numeric_limits<float>::infinity();
  kt[0 * kKeys + 3] = inf;
  kt[1 * kKeys + 3] = -inf;  // Inf - Inf -> NaN at key 3
  kt[2 * kKeys + 17] = inf;
  kt[4 * kKeys + 30] = std::numeric_limits<float>::quiet_NaN();
  q[6] = 3.0e38f;
  kt[6 * kKeys + 40] = 3.0e38f;  // overflows to Inf when rounded to float
  const auto want = seed_scores(q, kt, kKeys, kKeys, 0.25f);
  for (const KernelTable* table : supported_kernel_variants()) {
    std::vector<float> got(kKeys);
    table->attention_scores(q.data(), kHead, kt.data(), kKeys, kKeys, 0.25f,
                            got.data());
    expect_same_nonfinite(got, want, table->name);
  }
}

TEST(AttentionContextParity, EveryTableMatchesTheSeedLoopBitForBit) {
  for (const std::size_t d_head : {1u, 7u, 16u, 24u, 33u}) {
    for (const std::size_t ctx : score_contexts()) {
      const std::size_t ld = d_head * 4 + 1;  // one head inside wider rows
      auto p = random_values(ctx, ctx + 1);
      // Exact zeros (underflowed softmax weights) are skipped, not added:
      // -0.0 outputs would otherwise turn into +0.0.
      for (std::size_t j = 0; j < ctx; j += 3) p[j] = 0.0f;
      const auto v = random_values(ctx * ld, ctx * 13 + d_head);
      std::vector<float> want(d_head, 0.0f);
      want[0] = -0.0f;
      seed_context(p, v, ld, d_head, want);
      for (const KernelTable* table : supported_kernel_variants()) {
        std::vector<float> got(d_head, 0.0f);
        got[0] = -0.0f;
        table->attention_context(p.data(), ctx, v.data(), ld, d_head,
                                 got.data());
        ASSERT_TRUE(same_bits(got, want))
            << table->name << " d_head=" << d_head << " ctx=" << ctx;
      }
    }
  }
}

TEST(AttentionContextParity, NonFiniteValuesPropagateToTheSamePositions) {
  constexpr std::size_t kHead = 24, kKeys = 19;
  auto p = random_values(kKeys, 8);
  auto v = random_values(kKeys * kHead, 9);
  const float inf = std::numeric_limits<float>::infinity();
  p[2] = 0.0f;
  v[2 * kHead + 0] = std::numeric_limits<float>::quiet_NaN();  // skipped key
  p[4] = 0.5f;
  p[5] = 0.25f;
  v[4 * kHead + 1] = inf;
  v[5 * kHead + 1] = -inf;  // Inf - Inf -> NaN
  v[7 * kHead + 20] = -inf;
  std::vector<float> want(kHead, 0.0f);
  seed_context(p, v, kHead, kHead, want);
  for (const KernelTable* table : supported_kernel_variants()) {
    std::vector<float> got(kHead, 0.0f);
    table->attention_context(p.data(), kKeys, v.data(), kHead, kHead,
                             got.data());
    expect_same_nonfinite(got, want, table->name);
  }
}

}  // namespace
}  // namespace haan::kernels
