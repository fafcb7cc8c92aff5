// Serving across runs and threads: one Server's repeated runs reproduce its
// first run and the single-threaded reference oracle bit for bit for every
// provider, the norm-thread count never changes outputs, and KV residency is
// reported in logical bytes (rows stored), never in reserved capacity.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/topology.hpp"
#include "model/kv_cache.hpp"
#include "serve/server.hpp"

namespace haan::serve {
namespace {

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

TEST(NumaServe, RepeatRunsOnOneServerMatchFirstRunAndReference) {
  for (const std::string norm :
       {"exact", "haan", "haan-int8", "haan-fp16", "haan-full", "haan-noskip"}) {
    SCOPED_TRACE(norm);
    auto config = numa_server(norm, 2);
    const auto workload = ragged_workload(18, config.model.vocab_size);
    Server server(config);
    const ServeReport first = server.run(workload);
    const ServeReport second = server.run(workload);
    const ServeReport reference = server.run_reference(workload);
    expect_bit_identical(first, reference);
    expect_bit_identical(second, first);
    EXPECT_EQ(second.metrics.norm.isd_computed, first.metrics.norm.isd_computed);
    EXPECT_EQ(second.metrics.norm.elements_read,
              first.metrics.norm.elements_read);

    // The placement block names the topology; serving has no arenas, so the
    // arena fields the serving benchmark reads stay zero.
    EXPECT_EQ(first.metrics.mem.nodes,
              static_cast<int>(mem::topology().nodes()));
    EXPECT_EQ(first.metrics.mem.arena_bytes, 0u);
    EXPECT_EQ(first.metrics.mem.arena_allocations, 0u);
    EXPECT_EQ(first.metrics.mem.arena_slab_allocations, 0u);
    const auto json = first.metrics.to_json().dump_pretty();
    EXPECT_NE(json.find("\"mem\""), std::string::npos);
  }
}

TEST(NumaServe, ChunkedDecodeRepeatRunsMatchReferenceWithinLogicalKvBound) {
  auto config = numa_server("haan", 2);
  config.prefill_chunk = 5;
  const auto workload =
      ragged_workload(12, config.model.vocab_size, /*max_new=*/3);
  Server server(config);
  const ServeReport first = server.run(workload);
  const ServeReport second = server.run(workload);
  const ServeReport third = server.run(workload);
  expect_bit_identical(first, server.run_reference(workload));
  expect_bit_identical(second, first);
  expect_bit_identical(third, first);

  // Sessions reserve their full prompt+decode capacity up front, but the
  // residency metric is LOGICAL bytes, so it never exceeds the stored-row
  // footprint of the whole workload. (The watermark itself depends on how
  // many sessions overlap, so only the bound is deterministic.)
  std::size_t stored_rows = 0;
  for (const Request& request : workload) {
    stored_rows += request.tokens.size() + request.max_new_tokens;
  }
  const std::size_t logical_bound =
      config.model.n_blocks * 2 * stored_rows * config.model.d_model *
      sizeof(float);
  for (const ServeReport* report : {&first, &second, &third}) {
    EXPECT_GT(report->metrics.max_kv_bytes, 0u);
    EXPECT_LE(report->metrics.max_kv_bytes, logical_bound);
  }
}

TEST(NumaServe, NormThreadCountDoesNotChangeOutputs) {
  auto config = numa_server("haan-int8", 1);
  const auto workload = ragged_workload(12, config.model.vocab_size);

  config.norm_threads = 1;
  Server serial(config);
  config.norm_threads = 3;
  Server threaded(config);
  expect_bit_identical(serial.run(workload), threaded.run(workload));
}

TEST(NumaServe, KvCacheLogicalBytesIgnoreReservedCapacity) {
  // A cache with a generous row reservation holds more CAPACITY than a bare
  // cache of the same content, but the logical view — what residency metrics
  // report — is identical.
  model::KvCache reserved_cache(2, 8, /*reserve_rows=*/64);
  model::KvCache bare_cache(2, 8);
  const std::vector<float> rows(3 * 8, 1.5f);
  for (std::size_t block = 0; block < 2; ++block) {
    reserved_cache.append(block, rows, rows);
    bare_cache.append(block, rows, rows);
  }
  reserved_cache.commit(3);
  bare_cache.commit(3);
  EXPECT_EQ(reserved_cache.logical_bytes(), bare_cache.logical_bytes());
  EXPECT_EQ(reserved_cache.logical_bytes(), 2u * 2u * 3u * 8u * sizeof(float));
  EXPECT_GE(reserved_cache.memory_bytes(), 2u * 2u * 64u * 8u * sizeof(float));
  EXPECT_GE(reserved_cache.memory_bytes(), bare_cache.memory_bytes());
}

}  // namespace
}  // namespace haan::serve
