// End-to-end SLA-scheduling tests: batch-formation policies must never touch
// numerics (bit-identity against the single-threaded reference oracle for
// every provider), and overload admission control must shed/degrade visibly
// and correctly (shed requests complete unserved, degraded requests carry the
// degrade provider's exact outputs).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/provider_factory.hpp"
#include "serve/server.hpp"

namespace haan::serve {
namespace {

WorkloadConfig ragged_workload(std::size_t n, const model::ModelConfig& model) {
  WorkloadConfig config;
  config.n_requests = n;
  config.rate_rps = 50000.0;  // effectively closed-loop even when paced
  config.length_model = LengthModel::kBimodal;
  config.min_prompt = 4;
  config.max_prompt = 12;
  config.long_fraction = 0.4;  // heavy length mix: policies really reorder
  config.vocab_size = model.vocab_size;
  config.priority_levels = 2;
  config.seed = 7;
  return config;
}

ServerConfig base_server(const std::string& norm, SchedPolicy policy) {
  ServerConfig config;
  config.model = model::tiny_test_model();
  config.norm = norm;
  config.workers = 4;
  config.queue_capacity = 16;
  config.scheduler.max_batch = 4;
  config.scheduler.max_wait = std::chrono::microseconds(200);
  config.scheduler.policy.policy = policy;
  config.scheduler.policy.bin_width = 8;
  config.paced = false;
  config.calibration.n_samples = 8;
  config.calibration.seq_len = 16;
  config.calibration.position_stride = 4;
  config.calibration.planner.min_gap = 4;
  return config;
}

/// Same server but reusing an already-computed skip plan (one calibration per
/// provider, shared across the policy variants).
ServerConfig with_preset_plan(ServerConfig config, const core::SkipPlan& plan) {
  config.calibrate = false;
  config.preset_plan = plan;
  return config;
}

TEST(SlaServe, PoliciesAreBitIdenticalToReferenceForEveryProvider) {
  for (const std::string& norm : core::norm_provider_names()) {
    Server fifo(base_server(norm, SchedPolicy::kFifo));
    const auto workload =
        generate_workload(ragged_workload(32, fifo.config().model));
    const auto reference = fifo.run_reference(workload);

    for (const auto policy :
         {SchedPolicy::kFifo, SchedPolicy::kBinned, SchedPolicy::kEdf}) {
      Server server(
          with_preset_plan(base_server(norm, policy), fifo.plan()));
      const auto report = server.run(workload);
      ASSERT_EQ(report.results.size(), reference.results.size());
      for (std::size_t i = 0; i < report.results.size(); ++i) {
        EXPECT_EQ(report.results[i].id, reference.results[i].id);
        EXPECT_EQ(report.results[i].hidden_checksum,
                  reference.results[i].hidden_checksum)
            << norm << "/" << to_string(policy) << " request " << i;
      }
    }
  }
}

TEST(SlaServe, ChunkedDecodeBitIdenticalUnderPolicies) {
  // The step scheduler's policy path: chunked prefill + incremental decode
  // with binned/EDF pack formation must still match the re-forward oracle.
  auto make_config = [](SchedPolicy policy) {
    ServerConfig config = base_server("haan", policy);
    config.prefill_chunk = 4;
    return config;
  };
  Server first(make_config(SchedPolicy::kBinned));
  auto workload_config = ragged_workload(16, first.config().model);
  workload_config.decode_model = DecodeModel::kFixed;
  workload_config.decode_tokens = 3;
  const auto workload = generate_workload(workload_config);
  const auto reference = first.run_reference(workload);

  for (const auto policy : {SchedPolicy::kBinned, SchedPolicy::kEdf}) {
    Server server(
        with_preset_plan(make_config(policy), first.plan()));
    const auto report = server.run(workload);
    ASSERT_EQ(report.results.size(), reference.results.size());
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      EXPECT_EQ(report.results[i].hidden_checksum,
                reference.results[i].hidden_checksum)
          << to_string(policy) << " request " << i;
      EXPECT_EQ(report.results[i].generated, reference.results[i].generated);
    }
  }
}

TEST(SlaServe, OverloadShedsDeadlineTrafficAndReportsIt) {
  ServerConfig config = base_server("haan", SchedPolicy::kEdf);
  config.scheduler.policy.allow_shed = true;  // shed blown deadlines
  Server server(config);

  auto workload = generate_workload(ragged_workload(24, config.model));
  // Odd ids carry an unmeetable deadline (1 ns): admission control must shed
  // them; even ids have no deadline and must all be served.
  for (auto& request : workload) {
    if (request.id % 2 == 1) request.deadline_us = 1e-3;
  }
  const auto report = server.run(workload);

  ASSERT_EQ(report.results.size(), workload.size());
  std::size_t served = 0, shed = 0;
  for (const auto& result : report.results) {
    if (result.shed) {
      EXPECT_EQ(result.id % 2, 1u);
      EXPECT_TRUE(result.deadline_missed);
      EXPECT_EQ(result.hidden_checksum, 0u);  // no forward ran
      ++shed;
    } else {
      EXPECT_EQ(result.id % 2, 0u);
      ++served;
    }
  }
  EXPECT_EQ(served + shed, workload.size());
  EXPECT_EQ(served, 12u);
  EXPECT_EQ(shed, 12u);
  EXPECT_EQ(report.metrics.shed_requests, shed);
  EXPECT_EQ(report.metrics.completed, served);  // completed counts SERVED only
  EXPECT_EQ(report.metrics.deadline_missed_requests, shed);
  EXPECT_EQ(report.metrics.accounted_requests(), workload.size());
}

TEST(SlaServe, DegradedRequestsMatchDegradeProviderReference) {
  // Force every deadline-bearing request through the degrade lane, then check
  // its outputs are exactly what the degrade provider computes.
  ServerConfig config = base_server("haan", SchedPolicy::kBinned);
  config.degrade_norm = "haan-full";
  config.scheduler.policy.allow_degrade = true;
  config.scheduler.policy.degrade_slack_us = 1e12;
  Server server(config);

  auto workload = generate_workload(ragged_workload(24, config.model));
  for (auto& request : workload) request.deadline_us = 1e9;  // never missed

  // Reference: the same workload run single-threaded on the DEGRADE provider.
  ServerConfig reference_config =
      with_preset_plan(base_server("haan-full", SchedPolicy::kFifo),
                       server.plan());
  Server reference_server(reference_config);
  const auto reference = reference_server.run_reference(workload);

  const auto report = server.run(workload);
  ASSERT_EQ(report.results.size(), reference.results.size());
  std::size_t degraded = 0;
  for (std::size_t i = 0; i < report.results.size(); ++i) {
    EXPECT_TRUE(report.results[i].degraded);
    EXPECT_FALSE(report.results[i].shed);
    EXPECT_EQ(report.results[i].hidden_checksum,
              reference.results[i].hidden_checksum)
        << "request " << i;
    degraded += report.results[i].degraded ? 1 : 0;
  }
  EXPECT_EQ(report.metrics.degraded_requests, degraded);
  EXPECT_EQ(report.metrics.completed, workload.size());  // degraded = served
  EXPECT_EQ(report.metrics.shed_requests, 0u);
}

TEST(SlaServe, DeadlineMissesAreCountedWithoutSheddingOrDegrading) {
  // No admission control: requests with blown deadlines still get served,
  // and the misses are counted per result and in aggregate.
  ServerConfig config = base_server("haan", SchedPolicy::kEdf);
  Server server(config);

  auto workload = generate_workload(ragged_workload(16, config.model));
  for (auto& request : workload) request.deadline_us = 1e-3;  // 1 ns budget
  const auto report = server.run(workload);

  ASSERT_EQ(report.results.size(), workload.size());
  for (const auto& result : report.results) {
    EXPECT_FALSE(result.shed);
    EXPECT_FALSE(result.degraded);
    EXPECT_TRUE(result.deadline_missed);
  }
  EXPECT_EQ(report.metrics.completed, workload.size());
  EXPECT_EQ(report.metrics.deadline_missed_requests, workload.size());
  EXPECT_EQ(report.metrics.shed_requests, 0u);
  EXPECT_EQ(report.metrics.degraded_requests, 0u);
}

TEST(SlaServe, PerPriorityMetricsPartitionTheTraffic) {
  ServerConfig config = base_server("haan", SchedPolicy::kEdf);
  Server server(config);
  const auto workload =
      generate_workload(ragged_workload(24, config.model));  // 2 classes

  const auto report = server.run(workload);
  ASSERT_EQ(report.metrics.per_priority.size(), 2u);
  std::size_t counted = 0;
  for (const auto& [priority, summary] : report.metrics.per_priority) {
    EXPECT_TRUE(priority == 0 || priority == 1);
    counted += summary.total.count;
    EXPECT_EQ(summary.shed, 0u);
    EXPECT_EQ(summary.degraded, 0u);
  }
  EXPECT_EQ(counted, workload.size());
}

}  // namespace
}  // namespace haan::serve
