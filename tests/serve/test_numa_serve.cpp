// NUMA placement parity through the serving stack: placement moves memory
// (arenas, mbind) and threads (node pinning), never values, so every
// provider x prefill chunking x thread count must produce bit-identical
// results under HAAN_NUMA=off, auto and interleave — and match the
// single-threaded reference oracle. Also covers the arena stats surfaced in
// ServeMetrics (zero under off, live under auto, per-run deltas on a reused
// Server) and the logical-bytes KV accounting that keeps residency metrics
// comparable across modes.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/topology.hpp"
#include "model/kv_cache.hpp"
#include "serve/server.hpp"

namespace haan::serve {
namespace {

/// Forces one placement mode for the test body, restoring environment-driven
/// resolution on exit so tests stay order-independent.
class NumaModeGuard {
 public:
  explicit NumaModeGuard(mem::NumaMode mode) {
    mem::set_numa_mode_override(mode);
  }
  ~NumaModeGuard() { mem::clear_numa_mode_override(); }
};

ServerConfig numa_server(const std::string& norm, std::size_t workers) {
  ServerConfig config;
  config.model = model::tiny_test_model();
  config.norm = norm;
  config.workers = workers;
  config.queue_capacity = 32;
  config.scheduler.max_batch = 4;
  config.scheduler.max_wait = std::chrono::microseconds(200);
  config.paced = false;
  config.keep_hidden = true;
  config.calibration.n_samples = 8;
  config.calibration.seq_len = 16;
  config.calibration.position_stride = 4;
  config.calibration.planner.min_gap = 4;
  return config;
}

std::vector<Request> ragged_workload(std::size_t n, std::size_t vocab,
                                     std::size_t max_new = 0) {
  const std::size_t lens[] = {3, 7, 13, 4, 11, 1};
  common::Rng rng(41);
  std::vector<Request> workload;
  for (std::size_t i = 0; i < n; ++i) {
    Request request;
    request.id = i;
    request.max_new_tokens = max_new;
    request.tokens.resize(lens[i % 6]);
    for (auto& t : request.tokens) {
      t = static_cast<int>(rng.uniform_index(vocab));
    }
    workload.push_back(std::move(request));
  }
  return workload;
}

void expect_bit_identical(const ServeReport& a, const ServeReport& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].hidden_checksum, b.results[i].hidden_checksum)
        << "request " << i;
    EXPECT_EQ(a.results[i].generated, b.results[i].generated) << "request " << i;
    ASSERT_EQ(a.results[i].hidden.size(), b.results[i].hidden.size());
    for (std::size_t j = 0; j < a.results[i].hidden.size(); ++j) {
      ASSERT_EQ(a.results[i].hidden[j], b.results[i].hidden[j])
          << "request " << i << " element " << j;
    }
  }
}

TEST(NumaServe, EveryProviderBitIdenticalAcrossPlacementModes) {
  for (const std::string norm :
       {"exact", "haan", "haan-int8", "haan-fp16", "haan-full", "haan-noskip"}) {
    auto config = numa_server(norm, 2);
    const auto workload = ragged_workload(18, config.model.vocab_size);

    ServeReport off_report, auto_report, interleave_report, reference;
    {
      NumaModeGuard guard(mem::NumaMode::kOff);
      Server server(config);
      off_report = server.run(workload);
      reference = server.run_reference(workload);
    }
    {
      NumaModeGuard guard(mem::NumaMode::kAuto);
      Server server(config);
      auto_report = server.run(workload);
    }
    {
      NumaModeGuard guard(mem::NumaMode::kInterleave);
      Server server(config);
      interleave_report = server.run(workload);
    }
    expect_bit_identical(off_report, reference);
    expect_bit_identical(auto_report, off_report);
    expect_bit_identical(interleave_report, off_report);
    EXPECT_EQ(auto_report.metrics.norm.isd_computed,
              off_report.metrics.norm.isd_computed)
        << norm;
    EXPECT_EQ(auto_report.metrics.norm.elements_read,
              off_report.metrics.norm.elements_read)
        << norm;
  }
}

TEST(NumaServe, ChunkedDecodeBitIdenticalAcrossPlacementModes) {
  auto config = numa_server("haan", 2);
  config.prefill_chunk = 5;
  const auto workload =
      ragged_workload(12, config.model.vocab_size, /*max_new=*/3);

  ServeReport off_report, auto_report, reference;
  {
    NumaModeGuard guard(mem::NumaMode::kOff);
    Server server(config);
    off_report = server.run(workload);
    reference = server.run_reference(workload);
  }
  {
    NumaModeGuard guard(mem::NumaMode::kAuto);
    Server server(config);
    auto_report = server.run(workload);
  }
  expect_bit_identical(off_report, reference);
  expect_bit_identical(auto_report, off_report);

  // Sessions carry KV in arenas under auto and on the heap under off; the
  // residency metric is LOGICAL bytes in both modes, so it never exceeds the
  // stored-row footprint of the whole workload even though the auto-mode
  // arenas RESERVE the full prompt+decode capacity up front. (The watermark
  // itself depends on how many sessions overlap, so only the bound is
  // deterministic.)
  std::size_t stored_rows = 0;
  for (const Request& request : workload) {
    stored_rows += request.tokens.size() + request.max_new_tokens;
  }
  const std::size_t logical_bound =
      config.model.n_blocks * 2 * stored_rows * config.model.d_model *
      sizeof(float);
  for (const ServeReport* report : {&off_report, &auto_report}) {
    EXPECT_GT(report->metrics.max_kv_bytes, 0u);
    EXPECT_LE(report->metrics.max_kv_bytes, logical_bound);
  }
}

TEST(NumaServe, NormThreadCountDoesNotChangeOutputsUnderPlacement) {
  NumaModeGuard guard(mem::NumaMode::kAuto);
  auto config = numa_server("haan-int8", 1);
  const auto workload = ragged_workload(12, config.model.vocab_size);

  config.norm_threads = 1;
  Server serial(config);
  config.norm_threads = 3;
  Server threaded(config);
  expect_bit_identical(serial.run(workload), threaded.run(workload));
}

TEST(NumaServe, ArenaStatsZeroUnderOffAndLiveUnderAuto) {
  auto config = numa_server("haan", 2);
  const auto workload = ragged_workload(16, config.model.vocab_size);

  {
    NumaModeGuard guard(mem::NumaMode::kOff);
    Server server(config);
    const auto report = server.run(workload);
    EXPECT_EQ(report.metrics.mem.numa_mode, "off");
    EXPECT_EQ(report.metrics.mem.arena_bytes, 0u);
    EXPECT_EQ(report.metrics.mem.arena_allocations, 0u);
    EXPECT_EQ(report.metrics.mem.arena_resets, 0u);
  }
  {
    NumaModeGuard guard(mem::NumaMode::kAuto);
    Server server(config);
    const auto report = server.run(workload);
    EXPECT_EQ(report.metrics.mem.numa_mode, "auto");
    EXPECT_EQ(report.metrics.mem.nodes,
              static_cast<int>(mem::topology().nodes()));
    EXPECT_GT(report.metrics.mem.arena_bytes, 0u);
    EXPECT_GT(report.metrics.mem.arena_allocations, 0u);
    EXPECT_GT(report.metrics.mem.arena_resets, 0u);
    EXPECT_GE(report.metrics.mem.arena_reuse_ratio(), 0.0);
    EXPECT_LE(report.metrics.mem.arena_reuse_ratio(), 1.0);

    // The serialized report carries the placement block.
    const auto json = report.metrics.to_json().dump_pretty();
    EXPECT_NE(json.find("\"mem\""), std::string::npos);
    EXPECT_NE(json.find("arena_reuse_ratio"), std::string::npos);
    EXPECT_NE(json.find("cross_node_rows"), std::string::npos);
  }
}

TEST(NumaServe, RepeatRunsOnOneServerReuseItsArenas) {
  // The Server's arenas outlive run(): once warm, a run maps no new slab,
  // its arena counters are this run's alone, and its outputs match the
  // first run's bit for bit. One session per pack keeps the arena footprint
  // a pure function of the workload, so "warm" is reached by the second run.
  NumaModeGuard guard(mem::NumaMode::kAuto);
  auto config = numa_server("haan", 1);
  config.scheduler.max_batch = 1;
  const auto workload =
      ragged_workload(12, config.model.vocab_size, /*max_new=*/3);
  Server server(config);
  const ServeReport first = server.run(workload);
  const ServeReport second = server.run(workload);
  const ServeReport third = server.run(workload);

  EXPECT_GT(first.metrics.mem.arena_slab_allocations, 0u);
  EXPECT_EQ(third.metrics.mem.arena_slab_allocations, 0u);
  EXPECT_DOUBLE_EQ(third.metrics.mem.arena_reuse_ratio(), 1.0);
  // Deltas, not lifetime totals: every run does the same work.
  EXPECT_EQ(third.metrics.mem.arena_allocations,
            second.metrics.mem.arena_allocations);
  EXPECT_EQ(third.metrics.mem.arena_resets, second.metrics.mem.arena_resets);
  EXPECT_GT(third.metrics.mem.arena_resets, 0u);
  // The reservation is held, not re-mapped.
  EXPECT_GT(third.metrics.mem.arena_bytes, 0u);
  EXPECT_EQ(third.metrics.mem.arena_bytes, second.metrics.mem.arena_bytes);
  expect_bit_identical(third, first);
}

TEST(NumaServe, KvCacheLogicalBytesIgnoreArenaCapacity) {
  // An arena-backed cache with a generous row reservation holds more
  // CAPACITY than a bare heap cache of the same content, but the logical
  // view — what residency metrics report — is identical.
  mem::Arena arena;
  model::KvCache arena_cache(2, 8, &arena, /*reserve_rows=*/64);
  model::KvCache heap_cache(2, 8);
  const std::vector<float> rows(3 * 8, 1.5f);
  for (std::size_t block = 0; block < 2; ++block) {
    arena_cache.append(block, rows, rows);
    heap_cache.append(block, rows, rows);
  }
  arena_cache.commit(3);
  heap_cache.commit(3);
  EXPECT_EQ(arena_cache.logical_bytes(), heap_cache.logical_bytes());
  EXPECT_EQ(arena_cache.logical_bytes(), 2u * 2u * 3u * 8u * sizeof(float));
  EXPECT_GE(arena_cache.memory_bytes(), 2u * 2u * 64u * 8u * sizeof(float));
  EXPECT_GE(arena_cache.memory_bytes(), heap_cache.memory_bytes());
}

}  // namespace
}  // namespace haan::serve
