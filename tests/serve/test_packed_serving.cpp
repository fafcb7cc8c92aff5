// Mega-batch serving: packed cross-request execution through the full
// queue -> step scheduler -> worker-pool -> metrics stack. Covers
// bit-identity against the single-threaded reference (ragged prompt lengths,
// prime Σ seq_len, singleton packs, forced row-partition thread counts) and
// the packed metrics (packs, rows/pack, occupancy).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/server.hpp"

namespace haan::serve {
namespace {

ServerConfig mega_server(const std::string& norm, std::size_t workers,
                         std::size_t max_batch) {
  ServerConfig config;
  config.model = model::tiny_test_model();
  config.norm = norm;
  config.workers = workers;
  config.queue_capacity = 32;
  config.scheduler.max_batch = max_batch;
  config.scheduler.max_wait = std::chrono::microseconds(200);
  config.paced = false;
  config.keep_hidden = true;
  config.calibration.n_samples = 8;
  config.calibration.seq_len = 16;
  config.calibration.position_stride = 4;
  config.calibration.planner.min_gap = 4;
  return config;
}

/// Ragged fixed workload: lengths cycle {1, 7, 13, 4, 11, 2}; Σ of one cycle
/// = 38, and the cycle includes single-token prompts. Arrival offsets are 0
/// (closed loop).
std::vector<Request> ragged_workload(std::size_t n, std::size_t vocab) {
  const std::size_t lens[] = {1, 7, 13, 4, 11, 2};
  common::Rng rng(29);
  std::vector<Request> workload;
  for (std::size_t i = 0; i < n; ++i) {
    Request request;
    request.id = i;
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
    EXPECT_EQ(a.results[i].id, b.results[i].id);
    EXPECT_EQ(a.results[i].hidden_checksum, b.results[i].hidden_checksum)
        << "request " << i;
    ASSERT_EQ(a.results[i].hidden.size(), b.results[i].hidden.size());
    for (std::size_t j = 0; j < a.results[i].hidden.size(); ++j) {
      ASSERT_EQ(a.results[i].hidden[j], b.results[i].hidden[j])
          << "request " << i << " element " << j;
    }
  }
}

TEST(MegaBatchServe, PackedRunBitIdenticalToReferenceRaggedLengths) {
  for (const std::string norm : {"exact", "haan", "haan-int8"}) {
    Server server(mega_server(norm, 3, 4));
    const auto workload = ragged_workload(30, server.config().model.vocab_size);
    const auto reference = server.run_reference(workload);
    const auto packed = server.run(workload);
    expect_bit_identical(packed, reference);
    EXPECT_GT(packed.metrics.packed_forwards, 0u);
  }
}

TEST(MegaBatchServe, RowPartitionThreadCountDoesNotChangeOutputs) {
  auto config = mega_server("haan", 1, 8);
  const auto workload = ragged_workload(16, config.model.vocab_size);

  config.norm_threads = 1;
  Server serial(config);
  config.norm_threads = 3;
  Server threaded(config);

  const auto r1 = serial.run(workload);
  const auto r3 = threaded.run(workload);
  expect_bit_identical(r1, r3);
  EXPECT_EQ(r1.metrics.norm.isd_computed, r3.metrics.norm.isd_computed);
  EXPECT_EQ(r1.metrics.norm.isd_predicted, r3.metrics.norm.isd_predicted);
}

TEST(MegaBatchServe, SingletonBatchesPackOneSequenceEach) {
  // max_batch=1 degenerates every pack to a single sequence; rows/pack then
  // equals the mean prompt length and occupancy is exactly 1.
  Server server(mega_server("exact", 2, 1));
  const auto workload = ragged_workload(12, server.config().model.vocab_size);
  const auto report = server.run(workload);

  ASSERT_EQ(report.results.size(), 12u);
  EXPECT_EQ(report.metrics.packed_forwards, 12u);
  EXPECT_EQ(report.metrics.packed_sequences, 12u);
  std::size_t total_rows = 0;
  for (const auto& request : workload) total_rows += request.tokens.size();
  EXPECT_EQ(report.metrics.packed_rows, total_rows);
  EXPECT_DOUBLE_EQ(report.metrics.pack_occupancy(), 1.0);

  const auto reference = server.run_reference(workload);
  expect_bit_identical(report, reference);
}

TEST(MegaBatchServe, PackedMetricsReportRowsAndOccupancy) {
  // Closed-loop backlog with max_batch=4 over 16 requests: packs of (almost
  // always) 4 sequences; occupancy in (0, 1], rows/pack = packed mean Σ len.
  Server server(mega_server("haan", 1, 4));
  const auto workload = ragged_workload(16, server.config().model.vocab_size);
  const auto report = server.run(workload);

  EXPECT_GE(report.metrics.packed_forwards, 4u);
  EXPECT_EQ(report.metrics.packed_sequences, 16u);
  EXPECT_EQ(report.metrics.pack_capacity, 4u);
  std::size_t total_rows = 0;
  for (const auto& request : workload) total_rows += request.tokens.size();
  EXPECT_EQ(report.metrics.packed_rows, total_rows);
  EXPECT_GT(report.metrics.pack_occupancy(), 0.0);
  EXPECT_LE(report.metrics.pack_occupancy(), 1.0);
  EXPECT_GT(report.metrics.rows_per_pack(), 0.0);
  // One batched provider call per norm layer per pack, whatever the pack
  // holds: rows per call is exactly rows per pack (both are ratios of exact
  // integer counts, (sum rows * L) / (packs * L) and sum rows / packs).
  EXPECT_EQ(report.metrics.rows_per_batched_call(),
            report.metrics.rows_per_pack());

  // The JSON report carries the packing fields.
  const auto json = report.metrics.to_json().dump_pretty();
  EXPECT_NE(json.find("packed_forwards"), std::string::npos);
  EXPECT_NE(json.find("pack_occupancy"), std::string::npos);
  EXPECT_NE(json.find("rows_per_pack"), std::string::npos);
}

TEST(MegaBatchServe, PrimeTotalRowsPackRunsCleanly) {
  // One pack of Σ seq_len = 13 (prime) through a single worker: exercises
  // non-divisible row counts through every partitioned kernel path.
  auto config = mega_server("haan-full", 1, 3);
  config.norm_threads = 3;
  Server server(config);
  std::vector<Request> workload = ragged_workload(3, config.model.vocab_size);
  // Lengths 1, 7, 13 -> first batch may pack all three (Σ = 21) or fewer;
  // either way ragged, and the reference must match bit for bit.
  const auto reference = server.run_reference(workload);
  const auto packed = server.run(workload);
  expect_bit_identical(packed, reference);
}

}  // namespace
}  // namespace haan::serve
