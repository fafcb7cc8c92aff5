// Serving metrics: per-request latency percentiles (p50/p95/p99), throughput,
// batch and queue-depth statistics, and HAAN norm-execution counters
// aggregated across workers. The collector is thread-safe and STREAMING: all
// latency distributions live in fixed-size log-bucketed histograms
// (common::LogHistogram) and every other statistic is a running
// count/sum/max, so collector memory is constant no matter how many requests
// complete — finalize() may be called mid-run (live snapshots) as well as at
// drain time, rendering an immutable summary that serializes to JSON for
// trajectory anchoring.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/json_lite.hpp"
#include "core/haan_norm.hpp"
#include "mem/topology.hpp"  // MemPlacementInfo describes mem::topology()
#include "serve/request.hpp"

namespace haan::serve {

/// Aggregated HAAN execution counters (sums across all workers' providers).
using NormCounters = core::HaanNormProvider::Counters;

/// Latency distribution summary in microseconds.
struct LatencySummary {
  std::size_t count = 0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double max_us = 0.0;

  common::Json to_json() const;
};

/// Bucket layout for latency histograms: 1 us resolution floor, 1000 s cap,
/// 48 buckets per decade — every quantile is within ~4.9%
/// (one bucket ratio) of the exact nearest-rank sample.
common::LogHistogram::Config latency_histogram_config();

/// EXACT nearest-rank reference summary from an unsorted sample set (all
/// zeros when empty). The serving runtime itself summarizes from histograms
/// (summarize_histogram); this stays as the oracle the histogram path is
/// tolerance-tested against, and for small offline sample sets.
LatencySummary summarize_latency(std::vector<double> samples);

/// Histogram-backed summary: count/mean/max are exact, p50/p95/p99 are
/// bucket-resolution (within one bucket ratio of the exact nearest-rank).
LatencySummary summarize_histogram(const common::LogHistogram& histogram);

/// The kernel backend behind this run's norm layers, stamped by the server
/// from kernels::active(): one table per process serves every norm layer.
struct KernelTuningInfo {
  std::string backend;          ///< kernels::active_name() ("avx512", ...)
  std::size_t d = 0;            ///< the model's row width
  std::size_t norm_layers = 0;  ///< norm layers the table serves

  common::Json to_json() const;
};

/// Memory placement of ONE Server::run, stamped by the server: the NUMA nodes
/// the topology discovered (0 = not stamped). Serving allocates from the heap
/// and pins no thread, so the arena_* fields always read 0; they remain only
/// because the serving benchmark (perfbench/) reads them, and are not
/// rendered.
struct MemPlacementInfo {
  int nodes = 0;  ///< NUMA nodes the topology discovered
  std::size_t arena_bytes = 0;
  std::uint64_t arena_allocations = 0;
  std::uint64_t arena_slab_allocations = 0;

  common::Json to_json() const;
};

/// Per-priority-class slice of the run: served-latency summary plus the SLA
/// outcome counters, so overload runs are debuggable per class from the
/// metrics artifact alone.
struct PrioritySummary {
  LatencySummary total;  ///< enqueue -> completion of SERVED requests
  std::size_t shed = 0;
  std::size_t degraded = 0;
  std::size_t deadline_missed = 0;

  common::Json to_json() const;
};

/// Immutable end-of-run (or mid-run snapshot) metrics.
struct ServeMetrics {
  std::size_t completed = 0;  ///< requests SERVED (excludes shed)
  double wall_us = 0.0;
  double throughput_rps = 0.0;

  LatencySummary total;    ///< enqueue -> completion
  LatencySummary queued;   ///< enqueue -> dequeue
  LatencySummary compute;  ///< forward pass

  /// Phase latencies, reported SEPARATELY from totals: TTFT is enqueue ->
  /// first-token step (recorded per request, including prefill-only ones,
  /// where it is the prompt-completion step); inter-token is the gap between
  /// consecutive decoded-token completions of one session (count = Σ
  /// max(generated - 1, 0)). Both empty outside chunked/session execution.
  LatencySummary ttft;
  LatencySummary intertoken;

  std::uint64_t batches = 0;
  double mean_batch_size = 0.0;
  std::size_t max_batch_size = 0;

  /// Queue depth statistics, stamped by the server from the RequestQueue's
  /// own event-sampled accounting (every push AND pop, so drain-phase decay
  /// is represented; see RequestQueue::mean_depth).
  std::size_t max_queue_depth = 0;
  double mean_queue_depth = 0.0;

  /// Packing: one "pack" = one cross-request forward_hidden_batch over a
  /// whole step pack.
  std::uint64_t packed_forwards = 0;
  std::size_t packed_rows = 0;       ///< Σ rows fed over all packs
  std::size_t packed_sequences = 0;  ///< Σ sessions over all packs
  /// Scheduler max_batch, stamped by the server so occupancy is computable.
  std::size_t pack_capacity = 0;

  /// Phase row accounting: every packed row is either a prefill row (prompt
  /// chunk) or a decode row (one generated token fed back). Pack phase counts
  /// classify whole packs: pure-prefill, pure-decode, or mixed. All zero in
  /// run_reference reports.
  std::size_t prefill_rows = 0;
  std::size_t decode_rows = 0;
  std::uint64_t prefill_packs = 0;
  std::uint64_t decode_packs = 0;
  std::uint64_t mixed_packs = 0;

  /// KV cache residency: bytes at the last sample (final = 0 after drain) and
  /// the high watermark across the run. Zero in run_reference reports.
  std::size_t kv_bytes_resident = 0;
  std::size_t max_kv_bytes = 0;

  /// SLA outcomes: requests shed (completed unserved), served on the degrade
  /// provider, or served past their deadline. A shed request is counted here
  /// and NOT in `completed`/latency histograms — it is distinguishable from
  /// one that never arrived.
  std::size_t shed_requests = 0;
  std::size_t degraded_requests = 0;
  std::size_t deadline_missed_requests = 0;

  /// Requests completed unserved at enqueue because the model cannot serve
  /// their prompt (RequestResult::rejected). Like shed requests they are not
  /// in `completed` or the latency histograms.
  std::size_t rejected_requests = 0;

  /// Requests completed unserved because their pack's forward threw
  /// (RequestResult::failed). Not in `completed` or the latency histograms.
  std::size_t failed_requests = 0;

  /// Every request a run was offered lands in exactly one of these counters;
  /// Server::run and run_reference ensure the sum equals the offered count.
  std::size_t accounted_requests() const {
    return completed + shed_requests + rejected_requests + failed_requests;
  }

  /// Per-priority-class latency + SLA breakdown (key = Request.priority).
  std::map<int, PrioritySummary> per_priority;

  NormCounters norm;

  KernelTuningInfo kernel;

  MemPlacementInfo mem;

  /// Mean prefill rows per pack that carried any prefill (0 when none did).
  double prefill_rows_per_pack() const {
    const std::uint64_t packs = prefill_packs + mixed_packs;
    return packs == 0 ? 0.0
                      : static_cast<double>(prefill_rows) /
                            static_cast<double>(packs);
  }

  /// Mean decode rows per pack that carried any decode (0 when none did).
  double decode_rows_per_pack() const {
    const std::uint64_t packs = decode_packs + mixed_packs;
    return packs == 0 ? 0.0
                      : static_cast<double>(decode_rows) /
                            static_cast<double>(packs);
  }

  /// Mean rows per norm call (0 when no norm ran) — the row-block execution
  /// model's utilization: the rows a whole pack feeds, 1 if the seam
  /// degenerated to token-at-a-time calls.
  double rows_per_batched_call() const {
    return norm.batched_norm_calls == 0
               ? 0.0
               : static_cast<double>(norm.norm_calls) /
                     static_cast<double>(norm.batched_norm_calls);
  }

  /// Mean token rows packed into one cross-request forward.
  double rows_per_pack() const {
    return packed_forwards == 0 ? 0.0
                                : static_cast<double>(packed_rows) /
                                      static_cast<double>(packed_forwards);
  }

  /// Batch-pack occupancy: mean sequences per pack relative to the
  /// scheduler's max_batch — 1.0 when every pack carried a full batch, lower
  /// when max-wait expiry or end-of-stream closed batches early.
  double pack_occupancy() const {
    return packed_forwards == 0 || pack_capacity == 0
               ? 0.0
               : static_cast<double>(packed_sequences) /
                     (static_cast<double>(packed_forwards) *
                      static_cast<double>(pack_capacity));
  }

  common::Json to_json() const;
  std::string to_string() const;  ///< multi-line human-readable report
};

/// Thread-safe streaming metrics sink shared by the feeder and all workers.
/// Memory is constant in the number of completed requests (three fixed-size
/// histograms plus counters).
class MetricsCollector {
 public:
  MetricsCollector();

  /// Records one completed request (called by workers).
  void record(const RequestResult& result);

  /// Records one formed batch's size (called by workers).
  void record_batch(std::size_t batch_size);

  /// Records one packed cross-request forward (called by workers): `rows` =
  /// rows fed, `sequences` = sessions packed.
  void record_packed(std::size_t rows, std::size_t sequences);

  /// Records one step pack's phase mix: prefill vs decode rows
  /// it carried. Classifies the pack as prefill/decode/mixed internally.
  void record_step_pack(std::size_t prefill_rows, std::size_t decode_rows);

  /// Records one request's time-to-first-token (microseconds).
  void record_ttft(double us);

  /// Records one inter-token gap (microseconds) between consecutive decoded
  /// tokens of a session.
  void record_intertoken(double us);

  /// Samples the KV-bytes-resident gauge (after each step).
  void record_kv_bytes(std::size_t bytes);

  /// Accumulates one worker's provider counters at drain time.
  void add_norm_counters(const NormCounters& counters);

  /// Number of results recorded so far.
  std::size_t completed() const;

  /// Renders the summary; `wall_us` is the workload wall-clock span so far.
  /// Cheap and safe to call while workers are still recording (the live
  /// snapshot path); queue-depth fields are left zero for the server/caller
  /// to stamp from the RequestQueue.
  ServeMetrics finalize(double wall_us) const;

  /// Bytes retained by the collector — constant for its lifetime (histogram
  /// buckets + counters), asserted by tests to stay flat under load.
  std::size_t approx_memory_bytes() const;

 private:
  /// Per-priority streaming slice (lazy: one per distinct priority class, so
  /// memory stays constant for a fixed class set).
  struct PriorityBucket {
    common::LogHistogram total_us;
    std::size_t shed = 0;
    std::size_t degraded = 0;
    std::size_t deadline_missed = 0;

    PriorityBucket() : total_us(latency_histogram_config()) {}
  };

  PriorityBucket& priority_bucket(int priority);  ///< mu_ held by caller

  mutable std::mutex mu_;
  common::LogHistogram total_us_;
  common::LogHistogram queue_us_;
  common::LogHistogram compute_us_;
  common::LogHistogram ttft_us_;
  common::LogHistogram intertoken_us_;
  std::map<int, PriorityBucket> per_priority_;
  std::size_t shed_ = 0;
  std::size_t rejected_ = 0;
  std::size_t failed_ = 0;
  std::size_t degraded_ = 0;
  std::size_t deadline_missed_ = 0;
  std::uint64_t batch_count_ = 0;
  std::size_t batch_requests_ = 0;
  std::size_t max_batch_size_ = 0;
  std::uint64_t packed_forwards_ = 0;
  std::size_t packed_rows_ = 0;
  std::size_t packed_sequences_ = 0;
  std::size_t prefill_rows_ = 0;
  std::size_t decode_rows_ = 0;
  std::uint64_t prefill_packs_ = 0;
  std::uint64_t decode_packs_ = 0;
  std::uint64_t mixed_packs_ = 0;
  std::size_t kv_bytes_resident_ = 0;
  std::size_t max_kv_bytes_ = 0;
  NormCounters norm_;
};

}  // namespace haan::serve
