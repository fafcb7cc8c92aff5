// ServeMetrics / MetricsCollector unit coverage: empty sample sets (a
// drained-empty run with zero completed requests) must finalize to all-zero
// summaries without touching an empty vector, percentiles must follow the
// nearest-rank definition (exact for the vector oracle, within one log-bucket
// ratio for the streaming histogram collector), the collector's memory must
// stay constant in the completed-request count, and the aggregated HAAN norm
// counters (including the row-block batching counters) must sum across
// workers.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "serve/metrics.hpp"

namespace haan::serve {
namespace {

TEST(SummarizeLatency, EmptySampleSetIsAllZeros) {
  const LatencySummary summary = summarize_latency({});
  EXPECT_EQ(summary.count, 0u);
  EXPECT_EQ(summary.mean_us, 0.0);
  EXPECT_EQ(summary.p50_us, 0.0);
  EXPECT_EQ(summary.p95_us, 0.0);
  EXPECT_EQ(summary.p99_us, 0.0);
  EXPECT_EQ(summary.max_us, 0.0);
}

TEST(SummarizeLatency, SingleSampleIsEveryPercentile) {
  const LatencySummary summary = summarize_latency({42.0});
  EXPECT_EQ(summary.count, 1u);
  EXPECT_EQ(summary.mean_us, 42.0);
  EXPECT_EQ(summary.p50_us, 42.0);
  EXPECT_EQ(summary.p95_us, 42.0);
  EXPECT_EQ(summary.p99_us, 42.0);
  EXPECT_EQ(summary.max_us, 42.0);
}

TEST(SummarizeLatency, NearestRankPercentiles) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));
  const LatencySummary summary = summarize_latency(samples);
  EXPECT_EQ(summary.count, 100u);
  EXPECT_EQ(summary.p50_us, 50.0);
  EXPECT_EQ(summary.p95_us, 95.0);
  EXPECT_EQ(summary.p99_us, 99.0);
  EXPECT_EQ(summary.max_us, 100.0);
  EXPECT_EQ(summary.mean_us, 50.5);
}

TEST(MetricsCollector, FinalizeWithZeroCompletedRequestsReportsZeros) {
  // A run that drains empty: no records, no batches, no queue samples.
  const MetricsCollector collector;
  const ServeMetrics metrics = collector.finalize(0.0);
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_EQ(metrics.throughput_rps, 0.0);
  EXPECT_EQ(metrics.total.count, 0u);
  EXPECT_EQ(metrics.total.p99_us, 0.0);
  EXPECT_EQ(metrics.queued.count, 0u);
  EXPECT_EQ(metrics.compute.count, 0u);
  EXPECT_EQ(metrics.batches, 0u);
  EXPECT_EQ(metrics.mean_batch_size, 0.0);
  EXPECT_EQ(metrics.max_batch_size, 0u);
  EXPECT_EQ(metrics.max_queue_depth, 0u);
  EXPECT_EQ(metrics.mean_queue_depth, 0.0);
  EXPECT_EQ(metrics.norm.norm_calls, 0u);
  EXPECT_EQ(metrics.rows_per_batched_call(), 0.0);
  // Rendering the empty report must not crash either.
  EXPECT_FALSE(metrics.to_string().empty());
  EXPECT_FALSE(metrics.to_json().dump().empty());
}

TEST(MetricsCollector, FinalizeWithPositiveWallAndNoRequests) {
  // Wall clock elapsed but nothing completed (e.g. all requests rejected).
  const MetricsCollector collector;
  const ServeMetrics metrics = collector.finalize(2.5e6);
  EXPECT_EQ(metrics.completed, 0u);
  EXPECT_EQ(metrics.throughput_rps, 0.0);
  EXPECT_EQ(metrics.total.mean_us, 0.0);
}

TEST(MetricsCollector, NormCountersAggregateAcrossWorkers) {
  MetricsCollector collector;
  NormCounters worker1;
  worker1.norm_calls = 10;
  worker1.isd_computed = 6;
  worker1.isd_predicted = 4;
  worker1.elements_read = 640;
  worker1.fused_residual_norms = 8;
  worker1.batched_norm_calls = 2;
  NormCounters worker2;
  worker2.norm_calls = 5;
  worker2.batched_norm_calls = 1;
  collector.add_norm_counters(worker1);
  collector.add_norm_counters(worker2);

  const ServeMetrics metrics = collector.finalize(1.0);
  EXPECT_EQ(metrics.norm.norm_calls, 15u);
  EXPECT_EQ(metrics.norm.isd_computed, 6u);
  EXPECT_EQ(metrics.norm.isd_predicted, 4u);
  EXPECT_EQ(metrics.norm.elements_read, 640u);
  EXPECT_EQ(metrics.norm.fused_residual_norms, 8u);
  EXPECT_EQ(metrics.norm.batched_norm_calls, 3u);
  EXPECT_EQ(metrics.rows_per_batched_call(), 5.0);
  const std::string rendered = metrics.to_string();
  EXPECT_NE(rendered.find("batched norms"), std::string::npos);
}

TEST(MetricsCollector, RecordedLatenciesSummarize) {
  MetricsCollector collector;
  for (double us : {100.0, 200.0, 300.0}) {
    RequestResult result;
    result.total_us = us;
    result.queue_us = us / 2;
    result.compute_us = us / 2;
    collector.record(result);
  }
  collector.record_batch(2);
  collector.record_batch(1);
  const ServeMetrics metrics = collector.finalize(1e6);
  EXPECT_EQ(metrics.completed, 3u);
  EXPECT_EQ(metrics.throughput_rps, 3.0);
  // Percentiles come from the streaming log-bucket histogram: accurate to one
  // bucket ratio (~4.9% at 48 buckets/decade), not exact like the vector
  // oracle above.
  const double ratio = common::LogHistogram(latency_histogram_config()).bucket_ratio();
  EXPECT_NEAR(metrics.total.mean_us, 200.0, 1e-9);  // mean/max are exact
  EXPECT_EQ(metrics.total.max_us, 300.0);
  EXPECT_NEAR(metrics.total.p50_us, 200.0, 200.0 * (ratio - 1.0));
  EXPECT_EQ(metrics.batches, 2u);
  EXPECT_EQ(metrics.mean_batch_size, 1.5);
  EXPECT_EQ(metrics.max_batch_size, 2u);
  // Queue depth is owned by the RequestQueue now; the collector leaves it for
  // the server to stamp.
  EXPECT_EQ(metrics.max_queue_depth, 0u);
}

TEST(MetricsCollector, HistogramPercentilesTrackNearestRankWithinOneBucket) {
  // The acceptance bound of the streaming collector: every reported
  // percentile lies within one log-bucket ratio of the exact nearest-rank
  // value computed by the retained-samples oracle.
  MetricsCollector collector;
  std::vector<double> totals;
  double value = 3.0;
  for (int i = 0; i < 5000; ++i) {
    // Deterministic heavy-ish tail spanning several decades.
    value = 3.0 + std::fmod(value * 1.37 + 11.7, 90000.0);
    RequestResult result;
    result.total_us = value;
    result.queue_us = value * 0.25;
    result.compute_us = value * 0.75;
    collector.record(result);
    totals.push_back(value);
  }
  const LatencySummary exact = summarize_latency(totals);
  const ServeMetrics metrics = collector.finalize(1e6);
  const double ratio = common::LogHistogram(latency_histogram_config()).bucket_ratio();
  EXPECT_LE(metrics.total.p50_us, exact.p50_us * ratio);
  EXPECT_GE(metrics.total.p50_us, exact.p50_us / ratio);
  EXPECT_LE(metrics.total.p95_us, exact.p95_us * ratio);
  EXPECT_GE(metrics.total.p95_us, exact.p95_us / ratio);
  EXPECT_LE(metrics.total.p99_us, exact.p99_us * ratio);
  EXPECT_GE(metrics.total.p99_us, exact.p99_us / ratio);
  EXPECT_EQ(metrics.total.max_us, exact.max_us);  // extremes are exact
  EXPECT_NEAR(metrics.total.mean_us, exact.mean_us, exact.mean_us * 1e-9);
}

TEST(MetricsCollector, PhaseMetricsClassifyPacksAndSummarizeLatencies) {
  MetricsCollector collector;
  collector.record_step_pack(/*prefill_rows=*/8, /*decode_rows=*/0);
  collector.record_step_pack(/*prefill_rows=*/0, /*decode_rows=*/3);
  collector.record_step_pack(/*prefill_rows=*/4, /*decode_rows=*/2);
  collector.record_ttft(500.0);
  collector.record_ttft(700.0);
  collector.record_intertoken(50.0);
  collector.record_intertoken(70.0);
  collector.record_intertoken(90.0);
  collector.record_kv_bytes(4096);
  collector.record_kv_bytes(1024);

  const ServeMetrics metrics = collector.finalize(1e6);
  EXPECT_EQ(metrics.prefill_rows, 12u);
  EXPECT_EQ(metrics.decode_rows, 5u);
  EXPECT_EQ(metrics.prefill_packs, 1u);
  EXPECT_EQ(metrics.decode_packs, 1u);
  EXPECT_EQ(metrics.mixed_packs, 1u);
  // Rows divide over the packs that carried the phase (pure + mixed).
  EXPECT_DOUBLE_EQ(metrics.prefill_rows_per_pack(), 6.0);
  EXPECT_DOUBLE_EQ(metrics.decode_rows_per_pack(), 2.5);

  EXPECT_EQ(metrics.ttft.count, 2u);
  EXPECT_EQ(metrics.ttft.max_us, 700.0);
  EXPECT_NEAR(metrics.ttft.mean_us, 600.0, 1e-9);
  EXPECT_EQ(metrics.intertoken.count, 3u);
  EXPECT_EQ(metrics.intertoken.max_us, 90.0);

  // The gauge keeps the latest sample; the watermark keeps the peak.
  EXPECT_EQ(metrics.kv_bytes_resident, 1024u);
  EXPECT_EQ(metrics.max_kv_bytes, 4096u);

  const std::string rendered = metrics.to_string();
  EXPECT_NE(rendered.find("ttft"), std::string::npos);
  EXPECT_NE(rendered.find("inter-token"), std::string::npos);
  EXPECT_NE(rendered.find("kv cache"), std::string::npos);
  const std::string json = metrics.to_json().dump();
  EXPECT_NE(json.find("latency_ttft"), std::string::npos);
  EXPECT_NE(json.find("latency_intertoken"), std::string::npos);
  EXPECT_NE(json.find("prefill_rows_per_pack"), std::string::npos);
}

TEST(MetricsCollector, PhaseMetricsZeroOutsideSessionMode) {
  const MetricsCollector collector;
  const ServeMetrics metrics = collector.finalize(1.0);
  EXPECT_EQ(metrics.ttft.count, 0u);
  EXPECT_EQ(metrics.intertoken.count, 0u);
  EXPECT_EQ(metrics.prefill_rows, 0u);
  EXPECT_EQ(metrics.decode_rows, 0u);
  EXPECT_EQ(metrics.prefill_rows_per_pack(), 0.0);
  EXPECT_EQ(metrics.decode_rows_per_pack(), 0.0);
  EXPECT_EQ(metrics.max_kv_bytes, 0u);
}

TEST(MetricsCollector, SlaOutcomesAreCountedAndShedExcludedFromLatencies) {
  MetricsCollector collector;
  // Two served (one degraded, one a deadline miss), one shed.
  RequestResult served;
  served.total_us = 100.0;
  served.priority = 1;
  collector.record(served);

  RequestResult degraded;
  degraded.total_us = 200.0;
  degraded.priority = 0;
  degraded.degraded = true;
  degraded.deadline_missed = true;
  collector.record(degraded);

  RequestResult shed;
  shed.total_us = 1e9;  // must NOT appear in any latency summary
  shed.priority = 0;
  shed.shed = true;
  shed.deadline_missed = true;
  collector.record(shed);

  const ServeMetrics metrics = collector.finalize(1e6);
  EXPECT_EQ(metrics.completed, 2u);  // served only
  EXPECT_EQ(metrics.shed_requests, 1u);
  EXPECT_EQ(metrics.degraded_requests, 1u);
  EXPECT_EQ(metrics.deadline_missed_requests, 2u);  // shed counts as a miss
  EXPECT_EQ(metrics.total.count, 2u);
  EXPECT_EQ(metrics.total.max_us, 200.0);  // the shed 1e9 never entered

  // Per-priority slices partition the outcomes.
  ASSERT_EQ(metrics.per_priority.size(), 2u);
  const PrioritySummary& p0 = metrics.per_priority.at(0);
  EXPECT_EQ(p0.total.count, 1u);
  EXPECT_EQ(p0.shed, 1u);
  EXPECT_EQ(p0.degraded, 1u);
  EXPECT_EQ(p0.deadline_missed, 2u);
  const PrioritySummary& p1 = metrics.per_priority.at(1);
  EXPECT_EQ(p1.total.count, 1u);
  EXPECT_EQ(p1.shed, 0u);
  EXPECT_EQ(p1.degraded, 0u);
  EXPECT_EQ(p1.deadline_missed, 0u);

  // The JSON artifact carries the counters and the per-priority blocks.
  const std::string json = metrics.to_json().dump();
  EXPECT_NE(json.find("\"shed_requests\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded_requests\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_missed_requests\""), std::string::npos);
  EXPECT_NE(json.find("\"per_priority\""), std::string::npos);
  EXPECT_NE(json.find("\"1\""), std::string::npos);
  // The human-readable report mentions the outcomes too.
  EXPECT_NE(metrics.to_string().find("sla"), std::string::npos);
}

TEST(MetricsCollector, SingleClassTrafficKeepsOneImplicitBucket) {
  MetricsCollector collector;
  RequestResult result;
  result.total_us = 50.0;
  collector.record(result);
  const ServeMetrics metrics = collector.finalize(1e6);
  // Priority 0 traffic only: one implicit bucket, nothing shed or degraded.
  EXPECT_EQ(metrics.shed_requests, 0u);
  EXPECT_EQ(metrics.degraded_requests, 0u);
  ASSERT_EQ(metrics.per_priority.size(), 1u);
  EXPECT_EQ(metrics.per_priority.at(0).total.count, 1u);
}

TEST(MetricsCollector, MemoryConstantInCompletedRequestCount) {
  // The old collector kept every latency sample in vectors (O(completed));
  // the histogram collector's footprint must not grow with traffic.
  MetricsCollector small;
  MetricsCollector large;
  RequestResult result;
  result.total_us = 123.0;
  result.queue_us = 23.0;
  result.compute_us = 100.0;
  for (int i = 0; i < 100; ++i) small.record(result);
  for (int i = 0; i < 100000; ++i) {
    result.total_us = 1.0 + (i % 100000);  // spread across buckets
    large.record(result);
  }
  EXPECT_EQ(small.approx_memory_bytes(), large.approx_memory_bytes());
  EXPECT_LT(large.approx_memory_bytes(), 64u * 1024u);
  EXPECT_EQ(large.completed(), 100000u);
}

}  // namespace
}  // namespace haan::serve
