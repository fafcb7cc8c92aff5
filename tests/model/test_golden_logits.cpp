// Golden output pins: a 64-bit FNV-1a hash of the exact bits of the logits
// that fixed prompts produce on three model shapes, with exact normalization.
// Every other bit-identity suite compares two execution paths over the SAME
// weights, so a change to the weight generator's RNG draw order, to the
// weight layout or to a kernel's accumulation order that moves both sides
// alike would pass them all; this test catches it. Each case hashes the
// one-shot prompt logits (a many-row forward) and then three single-token
// decode steps through a KvCache (one-row forwards), so both the panel and
// the few-row matmul paths are pinned. The results are bit-identical on every
// kernel backend, so the same constants hold with HAAN_FORCE_SCALAR=1.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "model/kv_cache.hpp"
#include "model/transformer.hpp"

namespace haan::model {
namespace {

constexpr std::size_t kPromptLength = 20;
constexpr std::size_t kDecodeSteps = 3;

std::uint64_t fnv1a(std::uint64_t hash, std::span<const float> values) {
  for (const float v : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 4; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xFFu;
      hash *= 0x100000001B3ull;
    }
  }
  return hash;
}

/// Hash of the prompt's last logits, then of each decode step's logits, the
/// decode steps feeding back each step's argmax token.
std::uint64_t golden_hash(const ModelConfig& config) {
  const Transformer model(config);
  ExactNormProvider exact;
  common::Rng rng(config.seed + 101);
  std::vector<int> prompt(kPromptLength);
  for (int& t : prompt) t = static_cast<int>(rng.uniform_index(config.vocab_size));

  std::uint64_t hash = 0xCBF29CE484222325ull;
  const std::vector<float> prompt_logits = model.last_logits(prompt, exact);
  hash = fnv1a(hash, prompt_logits);

  KvCache cache = model.make_kv_cache();
  KvCache* caches[] = {&cache};
  const std::span<const int> prompt_span(prompt);
  {
    const BatchLayout layout = BatchLayout::single(prompt.size(), 0);
    (void)model.forward_hidden_batch({&prompt_span, 1}, layout, exact, nullptr,
                                     caches);
  }
  std::vector<float> logits = prompt_logits;
  for (std::size_t step = 0; step < kDecodeSteps; ++step) {
    std::size_t best = 0;
    for (std::size_t v = 1; v < logits.size(); ++v) {
      if (logits[v] > logits[best]) best = v;
    }
    const int token[] = {static_cast<int>(best)};
    const std::span<const int> token_span(token);
    const BatchLayout layout = BatchLayout::single(1, cache.position());
    const tensor::Tensor h = model.forward_hidden_batch(
        {&token_span, 1}, layout, exact, nullptr, caches);
    logits = model.logits_for_hidden_row(h.row(0));
    hash = fnv1a(hash, logits);
  }
  return hash;
}

TEST(GoldenLogits, TinyTestModel) {
  EXPECT_EQ(golden_hash(tiny_test_model()), 0xBF261C3010CFCB19ull);
}

TEST(GoldenLogits, Llama7bSurrogate64) {
  EXPECT_EQ(golden_hash(llama7b_surrogate(64)), 0xD8CD644BAA958F59ull);
}

TEST(GoldenLogits, Gpt2_355mSurrogate96) {
  EXPECT_EQ(golden_hash(gpt2_355m_surrogate(96)), 0x00867B9B37A6423Aull);
}

}  // namespace
}  // namespace haan::model
