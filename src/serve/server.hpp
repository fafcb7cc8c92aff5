// The serving facade: wires queue + step scheduler + worker pool + metrics
// around a Transformer. Construction builds the model and (for haan*
// providers) runs offline calibration once so every worker's provider shares
// the same skip plan. run() plays a workload open-loop (honoring arrival
// offsets) or closed-loop (as fast as the queue admits) through one
// execution path: every request becomes a session, and each step pack the
// scheduler forms — prefill chunks and decode steps of different requests —
// runs as ONE packed forward over a (Σ rows × d) block, so every norm layer
// is a single row-block provider call spanning all of them, optionally split
// across a worker-local row-partition pool. run_reference() executes the same
// workload single-threaded, request-at-a-time, with one provider — the
// determinism oracle. Multi-worker runs are compared against it bit-for-bit:
// per-request hidden states are identical for any worker count, packing,
// prefill chunking and norm-thread count, because providers key per-position
// state by packed row (unique per row, carrying exactly the per-sequence
// anchor values) and every row kernel is row-wise.
//
// Serving memory lives as long as the Server, not one run: under placement
// the Server owns two arena pools — session KV arenas and worker scratch
// arenas — that every run borrows from and returns to, so a warm Server maps
// and first-touches no new pages. The queue, session table, scheduler,
// workers and metrics are still built per run.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/calibration.hpp"
#include "core/provider_factory.hpp"
#include "mem/arena.hpp"
#include "model/transformer.hpp"
#include "serve/metrics.hpp"
#include "serve/step_scheduler.hpp"
#include "serve/workload.hpp"

namespace haan::serve {

/// How the worker pool executes requests. Chunked prefill + incremental
/// decode over live sessions is the only model; the enum and
/// ServerConfig::mode remain because the serving benchmark (perfbench/) sets
/// and prints them.
enum class ExecMode {
  kChunked,
};

std::string to_string(ExecMode mode);

/// Full serving configuration.
struct ServerConfig {
  model::ModelConfig model = model::tiny_test_model();

  /// Provider name (core::norm_provider_names()).
  std::string norm = "haan";

  /// Provider for DEGRADED requests (admission control's cheap lane under
  /// overload; see SchedulerConfig.policy). haan-full is the most aggressive
  /// skip configuration — the natural latency/accuracy trade-down.
  std::string degrade_norm = "haan-full";

  std::size_t workers = 4;
  std::size_t queue_capacity = 64;
  SchedulerConfig scheduler;

  ExecMode mode = ExecMode::kChunked;

  /// Prompt rows per prefill step (0 = whole remaining prompt in one step).
  std::size_t prefill_chunk = 0;

  /// Row-partition threads per worker provider (0 = HAAN_NORM_THREADS /
  /// hardware default, 1 = serial). Outputs are bit-identical regardless.
  std::size_t norm_threads = 0;

  /// NUMA/arena placement policy: "off", "auto", "interleave", or empty to
  /// defer to HAAN_NUMA (default auto). Non-empty sets the PROCESS-WIDE mode
  /// override at server construction (placement is global by nature: arenas,
  /// pinning and the topology are shared machinery). Placement moves memory
  /// and threads, never values — results are bit-identical across modes.
  std::string numa;

  /// Honor workload arrival offsets (open-loop). False = closed-loop: feed as
  /// fast as queue backpressure admits.
  bool paced = true;

  /// Emit a live metrics snapshot every this many milliseconds while the run
  /// is in flight (throughput, queue depth, pack occupancy, latency
  /// percentiles): a log line (component "stats") and, when stats_json_path
  /// is set, one appended JSON object per snapshot. 0 disables.
  std::size_t stats_interval_ms = 0;
  std::string stats_json_path;

  /// Keep full hidden states in results (verification; memory-heavy).
  bool keep_hidden = false;

  /// Run Algorithm 1 at startup and attach the plan to haan* providers.
  bool calibrate = true;
  core::CalibrationOptions calibration;

  /// Plan attached to haan* providers when `calibrate` is false
  /// (default-constructed = disabled). Lets benches reuse one calibration
  /// across many server instances instead of re-running Algorithm 1 each.
  core::SkipPlan preset_plan;
};

/// End-of-run report.
struct ServeReport {
  ServeMetrics metrics;
  std::vector<RequestResult> results;  ///< sorted by request id
};

/// Batched multi-threaded inference server.
class Server {
 public:
  /// Builds the model, validates the provider name (aborts on unknown) and
  /// calibrates the skip plan when configured.
  explicit Server(ServerConfig config);

  const ServerConfig& config() const { return config_; }
  const model::Transformer& model() const { return model_; }

  /// Skip plan attached to haan* providers (disabled for "exact" or when
  /// calibration is off).
  const core::SkipPlan& plan() const { return provider_options_.plan; }

  /// Builds one provider exactly as the workers do (shared with
  /// run_reference and external verification).
  std::unique_ptr<model::NormProvider> make_provider() const;

  /// Builds the degrade-lane provider (config.degrade_norm, same options and
  /// skip plan). Used by workers for degraded batches and by the bench's
  /// verify oracle to re-forward degraded requests.
  std::unique_ptr<model::NormProvider> make_degrade_provider() const;

  /// Serves the workload to completion through the concurrent runtime. A
  /// request the model cannot serve (empty prompt, prompt longer than
  /// max_seq_len, token outside the vocabulary) is never queued: it completes
  /// unserved with RequestResult::rejected set and counts in
  /// ServeMetrics::rejected_requests. run_reference rejects the same ones.
  /// A pack whose forward throws completes its requests unserved with
  /// RequestResult::failed set (ServeMetrics::failed_requests); the run goes
  /// on.
  ///
  /// Overlapping calls on one Server are safe: each run builds its own
  /// queue, scheduler, session table and workers, and the shared arena pools
  /// are mutex-guarded, so concurrent runs simply check out distinct arenas.
  /// Results stay bit-identical. Two per-run metrics are then approximate:
  /// mem.arena_bytes counts only the arenas parked when the run ends, and
  /// mem.cross_node_rows includes the other run's rows.
  ServeReport run(const std::vector<Request>& workload);

  /// Single-threaded in-order execution with one provider; no queue, no
  /// batching, no cross-request packing — one forward_hidden per request.
  /// Decode requests are served by the re-forward oracle: each generated
  /// token triggers a full forward over prompt + tokens-so-far (no KV cache),
  /// so the final hidden states/checksum cover exactly the fed rows (prompt +
  /// all generated tokens but the last) — the same rows incremental execution
  /// feeds.
  /// Produces bit-identical per-request hidden states (and identical per-row
  /// norm counters for prefill-only workloads: norm_calls / isd_* /
  /// elements_read / fused sums) to run() under any worker count, batch
  /// packing, prefill chunking, pack mix and norm-thread count. Only the
  /// batching-shape counters (batched_norm_calls, packed_*) differ — and,
  /// under decode, the per-row counters too (the oracle re-feeds prompt rows
  /// every step; incremental execution feeds each row once).
  ServeReport run_reference(const std::vector<Request>& workload);

 private:
  ServerConfig config_;
  model::Transformer model_;
  core::ProviderOptions provider_options_;
  /// Session KV arenas and worker scratch arenas, recycled across runs
  /// (empty with placement off).
  mem::ArenaPool kv_arenas_;
  mem::ArenaPool scratch_arenas_;
};

}  // namespace haan::serve
