// The chunked/incremental bit-identity invariant, at the model layer: feeding
// a sequence through forward_hidden_batch in ANY chunking — whole-prompt,
// fixed-size prefill chunks, single-row "decode" steps, or uneven per-sequence
// schedules — across any series of (mixed) packs with per-session KvCaches
// must reproduce, row for row, the exact bits of the one-shot forward. Runs
// every factory provider over pre/post-norm, serial and threaded span pools,
// and chunk sizes {whole, 5, 2, 1}; a separate case staggers chunk schedules
// so packs mix spans at different start positions, and a counters case checks
// the HAAN per-row work (norm calls, ISD splits, element reads) is invariant
// under chunking.
//
// Why this holds: attention is the only cross-row op, and the cached path
// replicates the one-shot arithmetic order per row (scores over the full
// cached prefix, the same softmax summation order, ascending-j context
// accumulation); everything else is row-wise, and providers key predictor
// anchors by packed row index within each forward, so every row — fed exactly
// once under any chunking — anchors on its own data.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/provider_factory.hpp"
#include "model/kv_cache.hpp"
#include "model/transformer.hpp"

namespace haan::model {
namespace {

ModelConfig decode_model(NormPlacement placement, NormKind kind) {
  ModelConfig config;
  config.name = "incremental-parity";
  config.n_blocks = 3;
  config.d_model = 61;  // prime
  config.n_heads = 1;
  config.d_ff = 64;
  config.vocab_size = 97;
  config.max_seq_len = 32;
  config.norm_kind = kind;
  config.placement = placement;
  config.final_norm = true;
  config.seed = 11;
  return config;
}

core::ProviderOptions provider_options(const ModelConfig& config,
                                       std::size_t norm_threads) {
  core::ProviderOptions options;
  options.width = config.d_model;
  options.model_name = config.name;
  options.norm_threads = norm_threads;
  options.plan.enabled = true;
  options.plan.start = 1;
  options.plan.end = 4;
  options.plan.decay = -0.05;
  return options;
}

std::vector<std::vector<int>> make_sequences(const ModelConfig& config,
                                             const std::vector<std::size_t>& lens) {
  common::Rng rng(23);
  std::vector<std::vector<int>> sequences;
  for (const std::size_t len : lens) {
    std::vector<int> tokens(len);
    for (auto& t : tokens) {
      t = static_cast<int>(rng.uniform_index(config.vocab_size));
    }
    sequences.push_back(std::move(tokens));
  }
  return sequences;
}

/// Feeds every sequence incrementally: round r packs the next chunk of each
/// unfinished sequence (chunks[s] rows, 0 = whole remainder) into ONE forward
/// with that sequence's KvCache, and appends each span's output rows to the
/// per-sequence accumulator. Sequences finish at different rounds, so later
/// packs shrink — mixing spans at different start positions throughout.
std::vector<std::vector<float>> run_incremental(
    const Transformer& model, const std::vector<std::vector<int>>& sequences,
    const std::vector<std::size_t>& chunks, NormProvider& provider,
    RowPartitionPool* span_pool) {
  const std::size_t d = model.config().d_model;
  std::vector<KvCache> caches;
  std::vector<std::size_t> fed(sequences.size(), 0);
  std::vector<std::vector<float>> accumulated(sequences.size());
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    caches.push_back(model.make_kv_cache());
  }

  for (;;) {
    std::vector<std::span<const int>> spans;
    std::vector<std::size_t> lengths, starts;
    std::vector<KvCache*> pack_caches;
    std::vector<std::size_t> members;
    for (std::size_t s = 0; s < sequences.size(); ++s) {
      const std::size_t remaining = sequences[s].size() - fed[s];
      if (remaining == 0) continue;
      const std::size_t rows =
          chunks[s] == 0 ? remaining : std::min(chunks[s], remaining);
      spans.push_back(std::span<const int>(sequences[s]).subspan(fed[s], rows));
      lengths.push_back(rows);
      starts.push_back(fed[s]);
      pack_caches.push_back(&caches[s]);
      members.push_back(s);
    }
    if (members.empty()) break;

    const BatchLayout layout = BatchLayout::from_spans(lengths, starts);
    const tensor::Tensor out =
        model.forward_hidden_batch(spans, layout, provider, span_pool,
                                   pack_caches);
    for (std::size_t i = 0; i < members.size(); ++i) {
      const SequenceSpan& span = layout.span(i);
      const auto rows = out.data().subspan(span.row_begin * d, span.rows * d);
      auto& acc = accumulated[members[i]];
      acc.insert(acc.end(), rows.begin(), rows.end());
      fed[members[i]] += span.rows;
    }
  }
  return accumulated;
}

void expect_matches_one_shot(const Transformer& model,
                             const std::vector<std::vector<int>>& sequences,
                             const std::vector<std::vector<float>>& incremental,
                             NormProvider& reference_provider,
                             const std::string& label) {
  ASSERT_EQ(incremental.size(), sequences.size()) << label;
  for (std::size_t s = 0; s < sequences.size(); ++s) {
    const tensor::Tensor expected =
        model.forward_hidden(sequences[s], reference_provider);
    ASSERT_EQ(incremental[s].size(), expected.data().size())
        << label << " seq " << s;
    for (std::size_t i = 0; i < incremental[s].size(); ++i) {
      ASSERT_EQ(incremental[s][i], expected.data()[i])
          << label << " seq " << s << " element " << i;
    }
  }
}

TEST(IncrementalDecodeParity, AnyChunkingMatchesOneShotForAllProviders) {
  // Lengths mix a single-token prompt with ragged longer ones; chunk size 1
  // is the decode regime (every row its own step).
  const std::vector<std::size_t> lens = {5, 1, 7};
  for (const NormPlacement placement :
       {NormPlacement::kPreNorm, NormPlacement::kPostNorm}) {
    const ModelConfig config = decode_model(placement, NormKind::kLayerNorm);
    const Transformer model(config);
    const auto sequences = make_sequences(config, lens);
    for (const std::string& name : core::norm_provider_names()) {
      for (const std::size_t chunk : {0u, 5u, 2u, 1u}) {
        for (const std::size_t threads : {1u, 3u}) {
          const std::string label =
              name + (placement == NormPlacement::kPreNorm ? " pre" : " post") +
              " chunk=" + std::to_string(chunk) +
              " threads=" + std::to_string(threads);
          auto provider = core::make_norm_provider(
              name, provider_options(config, threads));
          ASSERT_NE(provider, nullptr);
          RowPartitionPool span_pool(threads);
          const std::vector<std::size_t> chunks(lens.size(), chunk);
          const auto incremental = run_incremental(model, sequences, chunks,
                                                   *provider, &span_pool);
          auto reference =
              core::make_norm_provider(name, provider_options(config, 1));
          expect_matches_one_shot(model, sequences, incremental, *reference,
                                  label);
        }
      }
    }
  }
}

TEST(IncrementalDecodeParity, StaggeredMixedPacksMatchOneShot) {
  // Uneven per-sequence schedules: seq 0 advances 3 rows per pack, seq 1 one
  // row (pure decode cadence), seq 2 arrives whole. Packs therefore mix a
  // mid-prompt chunk, a single decode-style row and a full prompt, then decay
  // to smaller mixes as sequences finish — the serve-layer pack shapes.
  const ModelConfig config =
      decode_model(NormPlacement::kPreNorm, NormKind::kRMSNorm);
  const Transformer model(config);
  const auto sequences = make_sequences(config, {8, 6, 4});
  const std::vector<std::size_t> chunks = {3, 1, 0};
  for (const std::string name : {"haan", "haan-int8", "exact"}) {
    auto provider = core::make_norm_provider(name, provider_options(config, 2));
    RowPartitionPool span_pool(2);
    const auto incremental =
        run_incremental(model, sequences, chunks, *provider, &span_pool);
    auto reference = core::make_norm_provider(name, provider_options(config, 1));
    expect_matches_one_shot(model, sequences, incremental, *reference,
                            std::string(name) + " staggered");
  }
}

TEST(IncrementalDecodeParity, HaanPerRowCountersInvariantUnderChunking) {
  const ModelConfig config =
      decode_model(NormPlacement::kPreNorm, NormKind::kLayerNorm);
  const Transformer model(config);
  const auto sequences = make_sequences(config, {5, 1, 7});

  auto one_shot = core::make_norm_provider("haan", provider_options(config, 1));
  for (const auto& tokens : sequences) model.forward_hidden(tokens, *one_shot);
  const auto* ref = core::as_haan_provider(one_shot.get());
  ASSERT_NE(ref, nullptr);

  auto chunked = core::make_norm_provider("haan", provider_options(config, 1));
  run_incremental(model, sequences, {2, 2, 2}, *chunked, nullptr);
  const auto* inc = core::as_haan_provider(chunked.get());
  ASSERT_NE(inc, nullptr);

  // Every row is fed exactly once under any chunking, so per-row work is
  // identical; only the batching shape (calls per row-block) differs.
  EXPECT_EQ(inc->counters().norm_calls, ref->counters().norm_calls);
  EXPECT_EQ(inc->counters().isd_computed, ref->counters().isd_computed);
  EXPECT_EQ(inc->counters().isd_predicted, ref->counters().isd_predicted);
  EXPECT_EQ(inc->counters().elements_read, ref->counters().elements_read);
  EXPECT_EQ(inc->counters().fused_residual_norms,
            ref->counters().fused_residual_norms);
  EXPECT_GT(inc->counters().batched_norm_calls,
            ref->counters().batched_norm_calls);
}

TEST(IncrementalDecodeParity, KvCacheTracksPositionsAndMemory) {
  const ModelConfig config =
      decode_model(NormPlacement::kPreNorm, NormKind::kLayerNorm);
  const Transformer model(config);
  KvCache cache = model.make_kv_cache();
  ASSERT_TRUE(cache.valid());
  EXPECT_EQ(cache.blocks(), config.n_blocks);
  EXPECT_EQ(cache.d_model(), config.d_model);
  EXPECT_EQ(cache.position(), 0u);
  EXPECT_EQ(cache.memory_bytes(), 0u);  // nothing cached, nothing allocated

  // Forwards advance the committed position by the rows fed.
  const auto sequences = make_sequences(config, {6});
  auto provider = core::make_norm_provider("exact", provider_options(config, 1));
  std::vector<std::span<const int>> spans = {
      std::span<const int>(sequences[0]).subspan(0, 4)};
  std::vector<KvCache*> caches = {&cache};
  model.forward_hidden_batch(
      spans, BatchLayout::single(4), *provider, nullptr, caches);
  EXPECT_EQ(cache.position(), 4u);
  EXPECT_GT(cache.memory_bytes(), 0u);
  for (std::size_t b = 0; b < cache.blocks(); ++b) {
    EXPECT_EQ(cache.rows(b), 4u);
    EXPECT_GE(cache.ldk(b), 4u);
    EXPECT_EQ(cache.v(b).size(), 4u * config.d_model);
  }
  spans[0] = std::span<const int>(sequences[0]).subspan(4, 2);
  model.forward_hidden_batch(
      spans, BatchLayout::single(2, /*start_position=*/4), *provider, nullptr,
      caches);
  EXPECT_EQ(cache.position(), 6u);
}

TEST(IncrementalDecodeParity, ForwardRejectsCachePositionMismatch) {
  const ModelConfig config =
      decode_model(NormPlacement::kPreNorm, NormKind::kLayerNorm);
  const Transformer model(config);
  KvCache cache = model.make_kv_cache();
  const auto sequences = make_sequences(config, {4});
  auto provider = core::make_norm_provider("exact", provider_options(config, 1));
  const std::vector<std::span<const int>> spans = {
      std::span<const int>(sequences[0])};
  const std::vector<KvCache*> caches = {&cache};
  // Cache position is 0; a layout claiming the rows continue at 2 must abort
  // rather than silently attend over a hole.
  EXPECT_DEATH(model.forward_hidden_batch(spans,
                                          BatchLayout::single(4, 2), *provider,
                                          nullptr, caches),
               "");
}

}  // namespace
}  // namespace haan::model
