// Chunked prefill + incremental decode through the full serving stack:
// session-mode runs must reproduce the re-forward reference oracle bit for
// bit (checksums over fed rows, greedy token streams, full hidden states) for
// any prefill chunk size, worker count and pack mix; a closed queue must
// still drain live decode sessions to completion; max_new_tokens clamps to
// the model window; phase metrics (TTFT, inter-token, prefill/decode rows,
// KV residency) and phase-tagged trace spans report the split.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/json_lite.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace haan::serve {
namespace {

ServerConfig decode_server(const std::string& norm) {
  ServerConfig config;
  config.model = model::tiny_test_model();
  config.norm = norm;
  config.workers = 2;
  config.queue_capacity = 16;
  config.scheduler.max_batch = 4;
  config.scheduler.max_wait = std::chrono::microseconds(200);
  config.prefill_chunk = 2;
  config.paced = false;
  config.keep_hidden = true;
  config.calibration.n_samples = 8;
  config.calibration.seq_len = 16;
  config.calibration.position_stride = 4;
  config.calibration.planner.min_gap = 4;
  return config;
}

/// Ragged prompts with per-request decode demand: lengths cycle {1, 7, 4, 2},
/// max_new_tokens cycles {3, 0, 5, 1} — mixing prefill-only requests into the
/// decode stream.
std::vector<Request> decode_workload(std::size_t n, std::size_t vocab) {
  const std::size_t lens[] = {1, 7, 4, 2};
  const std::size_t decode[] = {3, 0, 5, 1};
  common::Rng rng(31);
  std::vector<Request> workload;
  for (std::size_t i = 0; i < n; ++i) {
    Request request;
    request.id = i;
    request.tokens.resize(lens[i % 4]);
    for (auto& t : request.tokens) {
      t = static_cast<int>(rng.uniform_index(vocab));
    }
    request.max_new_tokens = decode[i % 4];
    workload.push_back(std::move(request));
  }
  return workload;
}

void expect_matches_reference(const ServeReport& run, const ServeReport& ref) {
  ASSERT_EQ(run.results.size(), ref.results.size());
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    ASSERT_EQ(run.results[i].id, ref.results[i].id);
    EXPECT_EQ(run.results[i].generated, ref.results[i].generated)
        << "request " << i;
    EXPECT_EQ(run.results[i].hidden_checksum, ref.results[i].hidden_checksum)
        << "request " << i;
    ASSERT_EQ(run.results[i].hidden.size(), ref.results[i].hidden.size())
        << "request " << i;
    for (std::size_t j = 0; j < run.results[i].hidden.size(); ++j) {
      ASSERT_EQ(run.results[i].hidden[j], ref.results[i].hidden[j])
          << "request " << i << " element " << j;
    }
  }
}

TEST(DecodeServe, ChunkedRunMatchesReferenceOracleForProviders) {
  for (const std::string norm : {"exact", "haan", "haan-int8"}) {
    Server server(decode_server(norm));
    const auto workload =
        decode_workload(16, server.config().model.vocab_size);
    const auto reference = server.run_reference(workload);
    // The oracle actually decoded something.
    std::size_t total_generated = 0;
    for (const auto& result : reference.results) {
      total_generated += result.generated.size();
    }
    ASSERT_GT(total_generated, 0u) << norm;

    const auto chunked = server.run(workload);
    expect_matches_reference(chunked, reference);
  }
}

TEST(DecodeServe, ChunkSizeAndWorkerCountDoNotChangeOutputs) {
  auto base = decode_server("haan");
  const auto workload = decode_workload(12, base.model.vocab_size);
  Server oracle(base);
  const auto reference = oracle.run_reference(workload);

  for (const std::size_t chunk : {0u, 1u, 3u}) {
    for (const std::size_t workers : {1u, 4u}) {
      auto config = base;
      config.prefill_chunk = chunk;
      config.workers = workers;
      Server server(config);
      const auto report = server.run(workload);
      ASSERT_EQ(report.results.size(), workload.size());
      expect_matches_reference(report, reference);
    }
  }
}

TEST(DecodeServe, ClosedQueueStillDrainsLiveDecodeSessions) {
  // Closed-loop feeding closes the queue as soon as the last request is
  // admitted — long decodes are then entirely post-close work. Every request
  // must still deliver its full token budget.
  auto config = decode_server("exact");
  config.workers = 2;
  config.scheduler.max_batch = 3;
  Server server(config);
  std::vector<Request> workload =
      decode_workload(6, config.model.vocab_size);
  for (auto& request : workload) request.max_new_tokens = 16;
  const auto report = server.run(workload);
  ASSERT_EQ(report.results.size(), workload.size());
  for (const auto& result : report.results) {
    EXPECT_EQ(result.generated.size(), 16u) << "request " << result.id;
    EXPECT_GT(result.ttft_us, 0.0);
  }
  expect_matches_reference(report, server.run_reference(workload));
}

TEST(DecodeServe, MaxNewTokensClampsToModelWindow) {
  auto config = decode_server("exact");
  Server server(config);
  const std::size_t max_seq = config.model.max_seq_len;
  std::vector<Request> workload =
      decode_workload(2, config.model.vocab_size);
  workload[0].tokens.resize(max_seq - 2, 1);
  workload[0].max_new_tokens = 1000;  // window leaves prompt+2 fed rows
  workload[1].max_new_tokens = 1000;
  const auto report = server.run(workload);
  ASSERT_EQ(report.results.size(), 2u);
  // Fed rows never exceed max_seq_len: prompt + (generated - 1) <= max_seq,
  // so the clamp is max_seq - prompt + 1.
  EXPECT_EQ(report.results[0].generated.size(), 3u);
  EXPECT_EQ(report.results[1].generated.size(),
            max_seq - workload[1].tokens.size() + 1);
  expect_matches_reference(report, server.run_reference(workload));
}

TEST(DecodeServe, PhaseMetricsSeparateTtftAndInterToken) {
  Server server(decode_server("haan"));
  const auto workload = decode_workload(12, server.config().model.vocab_size);
  const auto report = server.run(workload);
  ASSERT_EQ(report.results.size(), workload.size());

  std::size_t prompt_rows = 0;
  std::size_t decode_rows = 0;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    prompt_rows += workload[i].tokens.size();
    const std::size_t generated = report.results[i].generated.size();
    decode_rows += generated == 0 ? 0 : generated - 1;
  }

  // One TTFT per request (prefill-only requests stamp it at prompt
  // completion); one inter-token gap per decoded token after the first.
  EXPECT_EQ(report.metrics.ttft.count, workload.size());
  EXPECT_EQ(report.metrics.intertoken.count, decode_rows);
  EXPECT_GT(report.metrics.ttft.p99_us, 0.0);

  // Exact phase row accounting: every fed row is prefill or decode.
  EXPECT_EQ(report.metrics.prefill_rows, prompt_rows);
  EXPECT_EQ(report.metrics.decode_rows, decode_rows);
  EXPECT_EQ(report.metrics.packed_rows, prompt_rows + decode_rows);
  EXPECT_GT(report.metrics.prefill_packs + report.metrics.mixed_packs, 0u);
  EXPECT_GT(report.metrics.decode_packs + report.metrics.mixed_packs, 0u);
  EXPECT_GT(report.metrics.decode_rows_per_pack(), 0.0);
  EXPECT_GT(report.metrics.max_kv_bytes, 0u);

  // Results carry per-request TTFT.
  for (const auto& result : report.results) {
    EXPECT_GT(result.ttft_us, 0.0) << "request " << result.id;
    EXPECT_LE(result.ttft_us, result.total_us) << "request " << result.id;
  }

  const std::string json = report.metrics.to_json().dump_pretty();
  for (const char* key :
       {"latency_ttft", "latency_intertoken", "prefill_rows", "decode_rows",
        "kv_bytes_resident", "max_kv_bytes", "decode_rows_per_pack"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  const std::string human = report.metrics.to_string();
  EXPECT_NE(human.find("ttft"), std::string::npos);
  EXPECT_NE(human.find("inter-token"), std::string::npos);
}

TEST(DecodeServe, ChunkedTraceTagsForwardSpansWithPhase) {
  obs::tracer().set_enabled(false);
  obs::tracer().reset();
  obs::tracer().set_ring_capacity(1 << 16);
  obs::tracer().set_enabled(true);

  auto config = decode_server("haan");
  config.workers = 1;
  Server server(config);
  std::vector<Request> workload =
      decode_workload(3, config.model.vocab_size);
  for (auto& request : workload) request.max_new_tokens = 4;
  server.run(workload);

  const auto parsed = common::Json::parse(obs::tracer().export_chrome_json());
  obs::tracer().set_enabled(false);
  obs::tracer().reset();
  ASSERT_TRUE(parsed.has_value());

  std::set<std::string> span_names;
  std::set<std::string> phases;
  for (const common::Json& event : parsed->find("traceEvents")->as_array()) {
    if (event.find("ph")->as_string() != "B") continue;
    const std::string& name = event.find("name")->as_string();
    span_names.insert(name);
    if (name == "forward") {
      const common::Json* args = event.find("args");
      ASSERT_NE(args, nullptr);
      const common::Json* phase = args->find("phase");
      ASSERT_NE(phase, nullptr) << "forward span missing phase arg";
      phases.insert(phase->as_string());
    }
  }
  // Session-mode lifecycle spans plus phase-tagged forwards: with decode
  // budgets past the prompt, pure decode steps must appear.
  for (const char* expected : {"pack-form", "pack", "forward", "complete"}) {
    EXPECT_TRUE(span_names.count(expected)) << "missing span " << expected;
  }
  EXPECT_TRUE(phases.count("decode")) << "no pure-decode forward traced";
  for (const std::string& phase : phases) {
    EXPECT_TRUE(phase == "prefill" || phase == "decode" || phase == "mixed")
        << phase;
  }
}

}  // namespace
}  // namespace haan::serve
