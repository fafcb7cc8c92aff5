#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <set>
#include <thread>

namespace haan::serve {
namespace {

WorkloadConfig small_workload(std::size_t n, const model::ModelConfig& model) {
  WorkloadConfig config;
  config.n_requests = n;
  config.rate_rps = 50000.0;  // effectively closed-loop even when paced
  config.min_prompt = 4;
  config.max_prompt = 12;
  config.vocab_size = model.vocab_size;
  config.seed = 3;
  return config;
}

ServerConfig tiny_server(const std::string& norm, std::size_t workers) {
  ServerConfig config;
  config.model = model::tiny_test_model();
  config.norm = norm;
  config.workers = workers;
  config.queue_capacity = 16;
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

TEST(Server, CompletesEveryRequestExactlyOnce) {
  Server server(tiny_server("exact", 4));
  const auto workload = generate_workload(small_workload(40, server.config().model));
  const auto report = server.run(workload);

  ASSERT_EQ(report.results.size(), 40u);
  ASSERT_EQ(report.metrics.completed, 40u);
  std::set<std::uint64_t> ids;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_EQ(report.results[i].id, i);  // sorted, no gaps, no duplicates
    ids.insert(report.results[i].id);
  }
  EXPECT_EQ(ids.size(), 40u);
  EXPECT_GT(report.metrics.throughput_rps, 0.0);
  EXPECT_GE(report.metrics.batches, 10u);  // 40 requests, max_batch 4
  EXPECT_LE(report.metrics.max_batch_size, 4u);
}

/// The run_reference parity tests, once per prefill chunk size: whole-prompt
/// steps, the adversarial single-row chunk, and a chunk that splits every
/// prompt mid-sequence.
class ServerParity : public ::testing::TestWithParam<std::size_t> {
 protected:
  ServerConfig chunked(ServerConfig config) const {
    config.prefill_chunk = GetParam();
    return config;
  }
};

TEST_P(ServerParity, MultiWorkerBitIdenticalToSingleThreadedReference) {
  Server server(chunked(tiny_server("haan", 4)));
  const auto workload = generate_workload(small_workload(48, server.config().model));

  const auto reference = server.run_reference(workload);
  const auto concurrent = server.run(workload);

  ASSERT_EQ(concurrent.results.size(), reference.results.size());
  for (std::size_t i = 0; i < concurrent.results.size(); ++i) {
    EXPECT_EQ(concurrent.results[i].id, reference.results[i].id);
    EXPECT_EQ(concurrent.results[i].hidden_checksum,
              reference.results[i].hidden_checksum)
        << "request " << i;
    // Full bit-for-bit hidden-state comparison, not just checksums.
    ASSERT_EQ(concurrent.results[i].hidden.size(), reference.results[i].hidden.size());
    for (std::size_t j = 0; j < concurrent.results[i].hidden.size(); ++j) {
      ASSERT_EQ(concurrent.results[i].hidden[j], reference.results[i].hidden[j])
          << "request " << i << " element " << j;
    }
  }
}

TEST_P(ServerParity, AggregatedHaanCountersMatchReference) {
  Server server(chunked(tiny_server("haan", 4)));
  const auto workload = generate_workload(small_workload(32, server.config().model));

  const auto reference = server.run_reference(workload);
  const auto concurrent = server.run(workload);

  EXPECT_EQ(concurrent.metrics.norm.norm_calls, reference.metrics.norm.norm_calls);
  EXPECT_EQ(concurrent.metrics.norm.isd_computed,
            reference.metrics.norm.isd_computed);
  EXPECT_EQ(concurrent.metrics.norm.isd_predicted,
            reference.metrics.norm.isd_predicted);
  EXPECT_EQ(concurrent.metrics.norm.elements_read,
            reference.metrics.norm.elements_read);
  EXPECT_GT(concurrent.metrics.norm.norm_calls, 0u);
}

TEST(Server, WorkerCountDoesNotChangeOutputs) {
  const auto workload_config =
      small_workload(24, tiny_server("haan", 1).model);
  const auto workload = generate_workload(workload_config);

  Server one(tiny_server("haan", 1));
  Server four(tiny_server("haan", 4));
  const auto r1 = one.run(workload);
  const auto r4 = four.run(workload);

  ASSERT_EQ(r1.results.size(), r4.results.size());
  for (std::size_t i = 0; i < r1.results.size(); ++i) {
    EXPECT_EQ(r1.results[i].hidden_checksum, r4.results[i].hidden_checksum);
  }
  EXPECT_EQ(r1.metrics.norm.isd_predicted, r4.metrics.norm.isd_predicted);
}

TEST(Server, UnservableRequestsAreRejectedAndTheRestServedBitIdentically) {
  Server server(tiny_server("haan", 4));
  const model::ModelConfig& model = server.config().model;
  const auto clean = generate_workload(small_workload(24, model));
  auto workload = clean;
  workload[5].tokens.clear();
  workload[11].tokens.assign(model.max_seq_len + 1, 1);
  workload[17].tokens.back() = static_cast<int>(model.vocab_size);
  const std::set<std::uint64_t> bad = {5, 11, 17};

  const auto concurrent = server.run(workload);
  const auto reference = server.run_reference(clean);

  ASSERT_EQ(concurrent.results.size(), workload.size());
  EXPECT_EQ(concurrent.metrics.rejected_requests, bad.size());
  EXPECT_EQ(concurrent.metrics.completed, workload.size() - bad.size());
  EXPECT_EQ(concurrent.metrics.accounted_requests(), workload.size());
  EXPECT_EQ(server.run_reference(workload).metrics.rejected_requests,
            bad.size());
  for (std::size_t i = 0; i < workload.size(); ++i) {
    const RequestResult& result = concurrent.results[i];
    ASSERT_EQ(result.id, i);
    EXPECT_EQ(result.rejected, bad.count(i) == 1) << "request " << i;
    if (result.rejected) {
      EXPECT_TRUE(result.hidden.empty());
      continue;
    }
    EXPECT_EQ(result.hidden_checksum, reference.results[i].hidden_checksum)
        << "request " << i;
    EXPECT_EQ(result.hidden, reference.results[i].hidden) << "request " << i;
  }
}

TEST_P(ServerParity, SkipPlanActiveOnDeepModel) {
  // The GPT2-117M surrogate (25 norm layers) has the log-linear ISD tail
  // Algorithm 1 targets; calibration must find an enabled plan and the
  // runtime must actually predict ISDs inside it.
  ServerConfig config;
  config.model = model::gpt2_117m_surrogate(32);
  config.norm = "haan";
  config.workers = 2;
  config.paced = false;
  config.scheduler.max_batch = 4;
  config.scheduler.max_wait = std::chrono::microseconds(200);
  config.calibration.n_samples = 4;
  config.calibration.seq_len = 12;
  config.calibration.position_stride = 4;
  Server server(chunked(config));
  EXPECT_TRUE(server.plan().enabled);

  const auto workload = generate_workload(small_workload(12, config.model));
  const auto report = server.run(workload);
  EXPECT_EQ(report.results.size(), 12u);
  EXPECT_GT(report.metrics.norm.isd_predicted, 0u);
  EXPECT_EQ(report.metrics.norm.isd_predicted,
            server.run_reference(workload).metrics.norm.isd_predicted);
}

INSTANTIATE_TEST_SUITE_P(PrefillChunk, ServerParity,
                         ::testing::Values(std::size_t{0}, std::size_t{1},
                                           std::size_t{2}));

TEST(Server, OverlappingRunsOnOneServerStayBitIdentical) {
  // run() is documented safe to overlap: each run has its own queue,
  // scheduler, sessions and workers.
  Server server(tiny_server("haan", 2));
  const auto workload =
      generate_workload(small_workload(24, server.config().model));
  const auto reference = server.run_reference(workload);

  ServeReport reports[2];
  std::thread other([&] { reports[1] = server.run(workload); });
  reports[0] = server.run(workload);
  other.join();

  for (const ServeReport& report : reports) {
    ASSERT_EQ(report.results.size(), reference.results.size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      EXPECT_EQ(report.results[i].hidden_checksum,
                reference.results[i].hidden_checksum)
          << "request " << i;
      EXPECT_EQ(report.results[i].hidden, reference.results[i].hidden)
          << "request " << i;
    }
  }
}

TEST(Server, ReportsTheResolvedNormThreadCount) {
  // norm_threads = 0 resolves once, at construction, from the worker count;
  // an explicit count is kept as given.
  for (const std::size_t workers : {1u, 2u, 4u}) {
    Server server(tiny_server("exact", workers));
    EXPECT_EQ(server.config().norm_threads,
              model::threads_per_worker(workers))
        << workers << " workers";
  }
  auto config = tiny_server("exact", 4);
  config.norm_threads = 3;
  EXPECT_EQ(Server(config).config().norm_threads, 3u);
}

TEST(Server, ExactProviderReportsZeroNormCounters) {
  Server server(tiny_server("exact", 2));
  const auto workload = generate_workload(small_workload(8, server.config().model));
  const auto report = server.run(workload);
  EXPECT_EQ(report.metrics.norm.norm_calls, 0u);  // exact has no counters
}

TEST(Server, PacedRunHonorsArrivalSpacing) {
  auto config = tiny_server("exact", 2);
  config.paced = true;
  Server server(config);

  auto workload_config = small_workload(10, config.model);
  workload_config.rate_rps = 2000.0;  // ~5 ms expected span
  const auto workload = generate_workload(workload_config);
  const auto report = server.run(workload);
  // Wall clock must cover at least the last arrival offset.
  EXPECT_GE(report.metrics.wall_us, workload.back().arrival_us);
}

TEST(Server, LatencyBreakdownIsConsistent) {
  Server server(tiny_server("haan", 2));
  const auto workload = generate_workload(small_workload(16, server.config().model));
  const auto report = server.run(workload);
  for (const auto& result : report.results) {
    EXPECT_GE(result.total_us, result.compute_us);
    EXPECT_GE(result.total_us, result.queue_us);
    EXPECT_GT(result.compute_us, 0.0);
  }
  EXPECT_GE(report.metrics.total.p99_us, report.metrics.total.p50_us);
  EXPECT_GE(report.metrics.total.max_us, report.metrics.total.p99_us);
}

}  // namespace
}  // namespace haan::serve
