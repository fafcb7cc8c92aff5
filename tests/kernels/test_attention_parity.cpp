// Exact-order contract of causal_attention (kernels.hpp): every runnable
// kernel table must be bit-identical (memcmp) to an inline replica of the
// seed's per-row attention — the score loop over transposed keys, the stable
// softmax and the P·V loop that skips exact-zero weights — for every head
// width, start position and row count, including the row counts that leave
// partial tiles and the few-row tiles that run per-row kernels, and for
// decode-shaped calls of 1-3 rows over a long cache. Keys reach the kernels
// as K^T with slack columns past the keys, inside a K^T of the whole row
// width; everything the head must not read (the slack, the other heads' rows
// and a guard row on either side) is NaN, so a kernel that reads outside its
// keys or its head fails. A row computed alone must equal the same row inside
// a long call. Non-finite values must land in the same positions, scores far
// below the row max or overflowing to -Inf must take the same zero-weight
// skips, a NaN or +Inf score (an infinite key, or a finite product past the
// float range) must abort every table, and a table patched for an expf
// mismatch must carry the scalar attention (and one patched for a tanhf
// mismatch the scalar gelu).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "kernels/backends.hpp"
#include "kernels/kernels.hpp"

namespace haan::kernels {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
/// Fills output columns outside the head; a kernel must never touch them.
constexpr float kSentinel = -12345.5f;

std::vector<float> random_values(std::size_t n, std::uint64_t seed) {
  common::Rng rng(seed);
  std::vector<float> v(n);
  rng.fill_gaussian(v, 0.05, 1.3);
  return v;
}

/// std::exp through a volatile read, so the compiler cannot fold a constant
/// argument (its folding is correctly rounded; libm's expf is not).
float libm_exp(float x) {
  const volatile float input = x;
  return std::exp(input);
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

/// The seed P·V loop: ascending j, exact-zero weights skipped, float
/// multiply then add.
void seed_context(const std::vector<float>& p, const std::vector<float>& v,
                  std::size_t ld, std::size_t d_head, std::vector<float>& out) {
  for (std::size_t j = 0; j < p.size(); ++j) {
    if (p[j] == 0.0f) continue;
    for (std::size_t c = 0; c < d_head; ++c) out[c] += p[j] * v[j * ld + c];
  }
}

/// One head of a causal attention call: q holds `rows` rows and k / v hold
/// start + rows keys, all with row stride ld and the head at column `off`.
/// k is the row-major record the seed loop reads; run() hands the kernels
/// its transpose.
struct Case {
  std::size_t d_head = 0;
  std::size_t start = 0;
  std::size_t rows = 0;
  std::size_t ld = 0;
  std::size_t off = 0;
  float scale = 0.0f;
  std::vector<float> q, k, v;

  Case(std::size_t d_head_, std::size_t start_, std::size_t rows_,
       std::size_t ld_, std::size_t off_, std::uint64_t seed)
      : d_head(d_head_), start(start_), rows(rows_), ld(ld_), off(off_),
        scale(1.0f / std::sqrt(static_cast<float>(d_head_))),
        q(random_values(rows_ * ld_, seed)),
        k(random_values((start_ + rows_) * ld_, seed + 1)),
        v(random_values((start_ + rows_) * ld_, seed + 2)) {}

  std::size_t keys() const { return start + rows; }
  float& q_at(std::size_t i, std::size_t c) { return q[i * ld + off + c]; }
  float& k_at(std::size_t j, std::size_t c) { return k[j * ld + off + c]; }
  float& v_at(std::size_t j, std::size_t c) { return v[j * ld + off + c]; }
};

/// Zero-weight skips and nonzero weights below 2^-126 the seed softmax
/// produced over a case.
struct WeightCounts {
  std::size_t zero = 0;
  std::size_t subnormal = 0;
};

/// The seed's per-row causal attention over the case: out is (rows x ld),
/// the head's columns computed and every other column kSentinel.
std::vector<float> seed_attention(const Case& c,
                                  WeightCounts* counts = nullptr) {
  std::vector<float> out(c.rows * c.ld, kSentinel);
  const std::vector<float> v_head(c.v.begin() + c.off, c.v.end());
  for (std::size_t i = 0; i < c.rows; ++i) {
    const std::size_t ctx = c.start + i + 1;
    const std::vector<float> q_row(c.q.begin() + i * c.ld + c.off,
                                   c.q.begin() + i * c.ld + c.off + c.d_head);
    std::vector<float> kt(c.d_head * ctx);
    for (std::size_t j = 0; j < ctx; ++j) {
      for (std::size_t col = 0; col < c.d_head; ++col) {
        kt[col * ctx + j] = c.k[j * c.ld + c.off + col];
      }
    }
    std::vector<float> p = seed_scores(q_row, kt, ctx, ctx, c.scale);
    seed_softmax(p);
    if (counts != nullptr) {
      for (const float w : p) {
        counts->zero += w == 0.0f ? 1 : 0;
        counts->subnormal += w != 0.0f && std::fpclassify(w) == FP_SUBNORMAL;
      }
    }
    std::vector<float> row(c.d_head, 0.0f);
    seed_context(p, v_head, c.ld, c.d_head, row);
    std::copy(row.begin(), row.end(), out.begin() + i * c.ld + c.off);
  }
  return out;
}

/// Columns past the keys in every K^T the tests build (ldk = keys + kSlack).
constexpr std::size_t kSlack = 5;

/// The case's keys as causal_attention reads them: all ld columns of k
/// transposed into (ld + 2) rows of ldk = keys + kSlack, column j holding key
/// j and row 1 + col holding component col, with a guard row on either side.
/// Only the head's d_head rows over the keys hold values; the slack columns,
/// the other columns' rows and the guard rows are NaN.
struct TransposedKeys {
  std::size_t ldk = 0;
  std::vector<float> kt;

  explicit TransposedKeys(const Case& c)
      : ldk(c.keys() + kSlack), kt((c.ld + 2) * ldk, kNaN) {
    for (std::size_t j = 0; j < c.keys(); ++j) {
      for (std::size_t col = c.off; col < c.off + c.d_head; ++col) {
        kt[(1 + col) * ldk + j] = c.k[j * c.ld + col];
      }
    }
  }

  /// The first K^T row of the head at column `off`.
  const float* head(std::size_t off) const { return kt.data() + (1 + off) * ldk; }
};

std::vector<float> run(const KernelTable& table, const Case& c) {
  const TransposedKeys keys(c);
  std::vector<float> out(c.rows * c.ld, kSentinel);
  table.causal_attention(c.q.data() + c.off, c.rows, keys.head(c.off),
                         keys.ldk, c.v.data() + c.off, c.ld, c.d_head, c.start,
                         c.scale, out.data() + c.off);
  return out;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// NaN at the same positions; every other element bit-identical.
void expect_same_nonfinite(const std::vector<float>& got,
                           const std::vector<float>& want,
                           const std::string& where) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::isnan(got[i]), std::isnan(want[i])) << where << " at " << i;
    if (!std::isnan(want[i])) {
      ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(float)), 0)
          << where << " at " << i << ": " << got[i] << " vs " << want[i];
    }
  }
}

std::vector<std::size_t> row_counts() {
  std::vector<std::size_t> rows;
  for (std::size_t r = 1; r <= 33; ++r) rows.push_back(r);
  rows.push_back(144);
  rows.push_back(193);
  return rows;
}

std::string describe(const KernelTable& table, const Case& c) {
  return std::string(table.name) + " d_head=" + std::to_string(c.d_head) +
         " start=" + std::to_string(c.start) +
         " rows=" + std::to_string(c.rows) + " ld=" + std::to_string(c.ld);
}

/// Head widths that fill whole tile columns (multiples of 8 and 16) and
/// widths that leave a partial column chunk, including one narrower than a
/// vector.
constexpr std::size_t kHeadWidths[] = {1, 7, 8, 16, 24, 33, 61, 64, 256};

TEST(CausalAttentionParity, EveryTableMatchesTheSeedLoopBitForBit) {
  for (const std::size_t d_head : kHeadWidths) {
    for (const std::size_t start : {0u, 1u, 15u, 16u, 17u, 100u}) {
      for (const std::size_t rows : row_counts()) {
        const Case c(d_head, start, rows, d_head, 0,
                     d_head * 7919 + start * 131 + rows);
        const auto want = seed_attention(c);
        for (const KernelTable* table : supported_kernels()) {
          ASSERT_TRUE(same_bits(run(*table, c), want)) << describe(*table, c);
        }
      }
    }
  }
}

TEST(CausalAttentionParity, AHeadInsideAWiderRowLeavesItsNeighboursAlone) {
  for (const std::size_t d_head : kHeadWidths) {
    if (d_head > 64) continue;
    // Four heads plus one stray column; the head under test is the third.
    const std::size_t ld = 4 * d_head + 1;
    for (const std::size_t rows : {1u, 3u, 16u, 17u, 40u}) {
      const Case c(d_head, 9, rows, ld, 2 * d_head, d_head + rows);
      const auto want = seed_attention(c);
      for (const KernelTable* table : supported_kernels()) {
        ASSERT_TRUE(same_bits(run(*table, c), want)) << describe(*table, c);
      }
    }
  }
}

TEST(CausalAttentionParity, DecodeStepsOverALongCacheMatchTheSeedLoop) {
  // Decode-shaped calls: 1-3 new rows over a long cached prefix, the head
  // under test the second of four, as in a served decode step.
  for (const std::size_t d_head : {16u, 24u}) {
    for (const std::size_t start : {40u, 144u, 190u}) {
      for (const std::size_t rows : {1u, 2u, 3u}) {
        const Case c(d_head, start, rows, 4 * d_head, d_head,
                     d_head * 31 + start + rows);
        const auto want = seed_attention(c);
        for (const KernelTable* table : supported_kernels()) {
          ASSERT_TRUE(same_bits(run(*table, c), want)) << describe(*table, c);
        }
      }
    }
  }
}

/// Makes every score order-sensitive: the first and last terms of each
/// dot product are a huge product (~2^50) and its exact negation, so every
/// term in between is added to a partial sum whose double ulp (~1/8) is
/// visible in the float score.
void make_cancelling(Case& c) {
  constexpr float kHuge = 33554432.0f;  // 2^25
  const std::size_t last = c.d_head - 1;
  for (std::size_t i = 0; i < c.rows; ++i) {
    c.q_at(i, 0) = kHuge;
    c.q_at(i, last) = kHuge;
  }
  for (std::size_t j = 0; j < c.keys(); ++j) {
    c.k_at(j, 0) = kHuge * (1.0f + 0.25f * static_cast<float>(j % 7));
    c.k_at(j, last) = -c.k_at(j, 0);
  }
}

TEST(CausalAttentionParity, CancellingScoreSumsKeepTheAscendingOrder) {
  for (const std::size_t d_head : {16u, 24u}) {
    for (const std::size_t rows : {1u, 5u, 16u, 17u, 33u}) {
      Case c(d_head, 3, rows, d_head, 0, d_head + rows);
      c.scale = 0.25f;
      make_cancelling(c);
      const auto want = seed_attention(c);
      // The case has teeth: the same sums in descending order change the
      // result.
      Case reversed = c;
      for (std::size_t i = 0; i < c.rows; ++i) {
        for (std::size_t col = 0; col < d_head; ++col) {
          reversed.q_at(i, col) = c.q_at(i, d_head - 1 - col);
        }
      }
      for (std::size_t j = 0; j < c.keys(); ++j) {
        for (std::size_t col = 0; col < d_head; ++col) {
          reversed.k_at(j, col) = c.k_at(j, d_head - 1 - col);
        }
      }
      ASSERT_FALSE(same_bits(seed_attention(reversed), want))
          << "d_head=" << d_head << " rows=" << rows;
      for (const KernelTable* table : supported_kernels()) {
        ASSERT_TRUE(same_bits(run(*table, c), want)) << describe(*table, c);
      }
    }
  }
}

TEST(CausalAttentionParity, ARowAloneEqualsTheSameRowInsideA193RowCall) {
  constexpr std::size_t kRows = 193;
  for (const std::size_t d_head : {16u, 24u}) {
    const Case full(d_head, 0, kRows, d_head, 0, d_head + 5);
    const TransposedKeys keys(full);
    for (const KernelTable* table : supported_kernels()) {
      const auto all = run(*table, full);
      // Every row alone, as a decode step at its own position.
      for (std::size_t i = 0; i < kRows; ++i) {
        std::vector<float> alone(d_head, kSentinel);
        table->causal_attention(full.q.data() + i * d_head, 1, keys.head(0),
                                keys.ldk, full.v.data(), d_head, d_head, i,
                                full.scale, alone.data());
        ASSERT_EQ(std::memcmp(alone.data(), all.data() + i * d_head,
                              d_head * sizeof(float)),
                  0)
            << table->name << " d_head=" << d_head << " row=" << i;
      }
      // Chunks of every size around the tile width, as in chunked prefill.
      for (const std::size_t chunk : {2u, 5u, 15u, 16u, 17u, 48u}) {
        for (std::size_t i0 = 0; i0 < kRows; i0 += chunk) {
          const std::size_t n = std::min(chunk, kRows - i0);
          std::vector<float> part(n * d_head, kSentinel);
          table->causal_attention(full.q.data() + i0 * d_head, n,
                                  keys.head(0), keys.ldk, full.v.data(),
                                  d_head, d_head, i0, full.scale, part.data());
          ASSERT_EQ(std::memcmp(part.data(), all.data() + i0 * d_head,
                                part.size() * sizeof(float)),
                    0)
              << table->name << " d_head=" << d_head << " chunk=" << chunk
              << " at row " << i0;
        }
      }
    }
  }
}

TEST(CausalAttentionParity, NonFiniteValuesPropagateToTheSamePositions) {
  for (const std::size_t rows : {2u, 17u, 40u}) {
    Case c(24, 6, rows, 24, 0, rows + 11);
    c.v_at(1, 3) = kNaN;
    c.v_at(2, 7) = kInf;
    c.v_at(4, 7) = -kInf;  // Inf - Inf -> NaN in column 7
    c.v_at(5, 20) = -kInf;
    c.v_at(c.keys() - 1, 0) = kInf;  // reaches the last row only
    const auto want = seed_attention(c);
    ASSERT_TRUE(std::any_of(want.begin(), want.end(),
                            [](float x) { return std::isnan(x); }));
    ASSERT_TRUE(std::any_of(want.begin(), want.end(),
                            [](float x) { return std::isinf(x); }));
    for (const KernelTable* table : supported_kernels()) {
      expect_same_nonfinite(run(*table, c), want, describe(*table, c));
    }
  }
}

TEST(CausalAttentionParity, InfiniteKeysGiveZeroWeightsThatAreSkipped) {
  // q's column 2 is positive, so a -Inf (or, through a negative q column,
  // +Inf) key element makes that key's score -Inf for every row: its weight
  // is exactly 0 and the NaN in its value row must never be read. Key 2
  // scores -Inf from finite values: q's column 4 is 1e30 and every key's is
  // 0 except key 2's, -1e30, whose product -1e60 is a finite double that
  // rounds to -Inf as a float.
  for (const std::size_t rows : {1u, 7u, 16u, 33u}) {
    Case c(16, 5, rows, 16, 0, rows + 23);
    for (std::size_t i = 0; i < rows; ++i) {
      c.q_at(i, 2) = 0.5f + std::fabs(c.q_at(i, 2));
      c.q_at(i, 9) = -0.5f - std::fabs(c.q_at(i, 9));
      c.q_at(i, 4) = 1.0e30f;
    }
    for (std::size_t j = 0; j < c.keys(); ++j) c.k_at(j, 4) = 0.0f;
    c.k_at(1, 2) = -kInf;
    c.k_at(2, 4) = -1.0e30f;
    c.k_at(3, 9) = kInf;
    c.v_at(1, 4) = kNaN;
    c.v_at(2, 1) = kNaN;
    c.v_at(3, 11) = kNaN;
    WeightCounts counts;
    const auto want = seed_attention(c, &counts);
    ASSERT_GE(counts.zero, 3 * rows);
    ASSERT_TRUE(std::none_of(want.begin(), want.end(),
                             [](float x) { return std::isnan(x); }));
    for (const KernelTable* table : supported_kernels()) {
      ASSERT_TRUE(same_bits(run(*table, c), want)) << describe(*table, c);
    }
  }
}

TEST(CausalAttentionParity, SignedZerosKeepTheirBits) {
  for (const std::size_t rows : {1u, 9u, 16u, 20u}) {
    Case c(8, 4, rows, 8, 0, rows + 31);
    // Row 0's query is all zeros of both signs: every score is a zero and
    // the weights are uniform, with +0 / -0 ties in the max.
    for (std::size_t col = 0; col < 8; ++col) {
      c.q_at(0, col) = col % 2 == 0 ? -0.0f : 0.0f;
    }
    for (std::size_t i = 1; i < rows; ++i) c.q_at(i, i % 8) = -0.0f;
    for (std::size_t j = 0; j < c.keys(); ++j) {
      c.k_at(j, j % 8) = -0.0f;
      c.v_at(j, (j + 3) % 8) = -0.0f;
    }
    for (std::size_t col = 0; col < 8; ++col) c.v_at(2, col) = -0.0f;
    const auto want = seed_attention(c);
    for (const KernelTable* table : supported_kernels()) {
      ASSERT_TRUE(same_bits(run(*table, c), want)) << describe(*table, c);
    }
  }
}

TEST(CausalAttentionParity, ScoresFarBelowTheMaxTakeTheSameSkips) {
  // Every third key scores 90..200 below the others: exp lands in libm's
  // |x| >= 88 path, giving subnormal weights down to 90 below and exact
  // zeros (skipped keys) past ~104 below. NaN values sit on the keys that
  // must be skipped.
  const float drops[] = {90.0f, 96.0f, 103.0f, 110.0f, 200.0f};
  for (const std::size_t d_head : {16u, 24u}) {
    for (const std::size_t rows : {1u, 4u, 16u, 19u, 33u}) {
      Case c(d_head, 17, rows, d_head, 0, d_head * 3 + rows);
      for (std::size_t i = 0; i < rows; ++i) {
        for (std::size_t col = 0; col < d_head; ++col) c.q_at(i, col) *= 0.1f;
        c.q_at(i, 0) = 1.0f;
      }
      for (std::size_t j = 0; j < c.keys(); ++j) {
        for (std::size_t col = 0; col < d_head; ++col) c.k_at(j, col) *= 0.1f;
        if (j % 3 != 1) continue;
        const float drop = drops[(j / 3) % 5];
        c.k_at(j, 0) = -drop / c.scale;
        if (drop > 105.0f) c.v_at(j, j % d_head) = kNaN;
      }
      WeightCounts counts;
      const auto want = seed_attention(c, &counts);
      ASSERT_GT(counts.zero, 0u);
      ASSERT_GT(counts.subnormal, 0u);
      ASSERT_TRUE(std::none_of(want.begin(), want.end(),
                               [](float x) { return std::isnan(x); }));
      for (const KernelTable* table : supported_kernels()) {
        ASSERT_TRUE(same_bits(run(*table, c), want)) << describe(*table, c);
      }
    }
  }
}

TEST(CausalAttentionParity, WeightsOnAFloatRoundingMidpointMatchTheDivide) {
  // Keys 0 and 1 tie for the max (e = 1 each) and every other key scores
  // 86.65..87.3 below it, so its e is a normal float in [2^-126, 2^-125)
  // and the sum is exactly 2.0 in double: e / 2 is a subnormal float, on a
  // rounding midpoint whenever e's last bit is set. Those weights must round
  // to even like the scalar divide. The tied keys' values are 0 and the
  // others' 2^100, so every weight bit reaches the output.
  constexpr std::size_t kHead = 16;
  for (const std::size_t rows : {1u, 5u, 16u, 23u}) {
    Case c(kHead, 2, rows, kHead, 0, rows + 41);  // scale = 0.25, exact
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t col = 0; col < kHead; ++col) c.q_at(i, col) = 0.0f;
      c.q_at(i, 0) = 1.0f;  // score_j = 0.25 * k[j][0], exactly
    }
    for (std::size_t j = 0; j < c.keys(); ++j) {
      const float below = 86.65f + 0.65f * static_cast<float>(j % 13) / 13.0f;
      c.k_at(j, 0) = j < 2 ? 40.0f : 4.0f * (10.0f - below);
      for (std::size_t col = 0; col < kHead; ++col) {
        c.v_at(j, col) = j < 2 ? 0.0f : std::ldexp(c.v_at(j, col), 100);
      }
    }
    const auto want = seed_attention(c);
    for (const KernelTable* table : supported_kernels()) {
      ASSERT_TRUE(same_bits(run(*table, c), want)) << describe(*table, c);
    }
  }
}

TEST(CausalAttentionParityDeathTest, ANaNOrInfiniteScoreAbortsEveryTable) {
  for (const KernelTable* table : supported_kernels()) {
    for (const std::size_t rows : {1u, 16u}) {
      Case nan_query(16, 2, rows, 16, 0, 77);
      nan_query.q_at(rows - 1, 5) = kNaN;
      EXPECT_DEATH(run(*table, nan_query), "assertion failed")
          << table->name << " rows=" << rows;
      Case inf_score(16, 2, rows, 16, 0, 78);
      for (std::size_t i = 0; i < rows; ++i) {
        inf_score.q_at(i, 3) = 1.0f + std::fabs(inf_score.q_at(i, 3));
      }
      inf_score.k_at(1, 3) = kInf;
      EXPECT_DEATH(run(*table, inf_score), "assertion failed")
          << table->name << " rows=" << rows;
      // A finite q·k (1e60) that rounds to +Inf as a float score.
      Case overflow(16, 2, rows, 16, 0, 79);
      for (std::size_t i = 0; i < rows; ++i) overflow.q_at(i, 4) = 1.0e30f;
      overflow.k_at(1, 4) = 1.0e30f;
      EXPECT_DEATH(run(*table, overflow), "assertion failed")
          << table->name << " rows=" << rows;
    }
  }
}

/// A wrong exp, as the host check would see one from a libm the SIMD model
/// does not match.
void wrong_exp(const float* x, std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i];
}

/// A wrong gelu, as the host check would see one from a libm whose tanhf the
/// SIMD model does not match.
void wrong_gelu(float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] *= 0.5f;
}

TEST(CausalAttentionFallback, APatchedTableCarriesTheScalarAttention) {
  for (const KernelTable* table : supported_kernels()) {
    KernelTable patched{};
    // A table whose exp agrees with libm (every runnable one) is kept.
    EXPECT_EQ(detail::with_checked_libm(table, patched), table) << table->name;

    KernelTable broken = *table;
    broken.exp = wrong_exp;
    const KernelTable* fixed = detail::with_checked_libm(&broken, patched);
    ASSERT_EQ(fixed, &patched) << table->name;
    EXPECT_EQ(fixed->causal_attention, &detail::causal_attention_scalar)
        << table->name;
    EXPECT_EQ(fixed->exp, &detail::exp_scalar) << table->name;
    EXPECT_EQ(fixed->softmax, &detail::softmax_scalar) << table->name;
    EXPECT_EQ(fixed->silu, &detail::silu_scalar) << table->name;
    EXPECT_EQ(fixed->linear, table->linear) << table->name;
    EXPECT_EQ(fixed->gelu, table->gelu) << table->name;

    const Case c(24, 3, 20, 24, 0, 5);
    EXPECT_TRUE(same_bits(run(*fixed, c), seed_attention(c))) << table->name;

    // A gelu that fails the tanhf probes swaps in the scalar gelu only.
    KernelTable broken_gelu = *table;
    broken_gelu.gelu = wrong_gelu;
    fixed = detail::with_checked_libm(&broken_gelu, patched);
    ASSERT_EQ(fixed, &patched) << table->name;
    EXPECT_EQ(fixed->gelu, &detail::gelu_scalar) << table->name;
    EXPECT_EQ(fixed->exp, table->exp) << table->name;
    EXPECT_EQ(fixed->causal_attention, table->causal_attention) << table->name;
  }
  KernelTable unused{};
  EXPECT_EQ(detail::with_checked_libm(nullptr, unused), nullptr);
}

}  // namespace
}  // namespace haan::kernels
