#include "serve/server.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "common/assert.hpp"
#include "common/table.hpp"
#include "kernels/kernels.hpp"
#include "mem/topology.hpp"
#include "model/row_partition.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace.hpp"
#include "serve/queue.hpp"
#include "serve/session.hpp"
#include "serve/step_scheduler.hpp"
#include "serve/worker_pool.hpp"
#include "tensor/ops.hpp"
#include "tensor/tensor.hpp"

namespace haan::serve {

namespace {

/// Builds one live snapshot from the in-flight collectors. `last_completed`
/// carries state between snapshots so per-interval throughput is reported
/// alongside the cumulative rate.
obs::Snapshot live_snapshot(const MetricsCollector& metrics,
                            const RequestQueue& queue,
                            std::size_t pack_capacity,
                            const KernelTuningInfo& kernel,
                            Clock::time_point started,
                            std::uint64_t xnode_rows_base,
                            std::size_t& last_completed) {
  const double elapsed = elapsed_us(started, Clock::now());
  ServeMetrics live = metrics.finalize(elapsed);
  live.pack_capacity = pack_capacity;  // occupancy needs the scheduler bound
  const std::size_t depth = queue.size();
  const std::size_t delta = live.completed - last_completed;
  last_completed = live.completed;

  obs::Snapshot snapshot;
  std::ostringstream human;
  human << "t=" << common::format_double(elapsed / 1e6, 2) << "s completed="
        << live.completed << " (+" << delta << ") rate="
        << common::format_double(live.throughput_rps, 1) << " rps queue="
        << depth << " occupancy="
        << common::format_double(live.pack_occupancy(), 2) << " p50="
        << common::format_double(live.total.p50_us / 1000.0, 2) << "ms p95="
        << common::format_double(live.total.p95_us / 1000.0, 2) << "ms p99="
        << common::format_double(live.total.p99_us / 1000.0, 2) << "ms";
  snapshot.human = human.str();

  common::Json::Object json;
  json["t_us"] = elapsed;
  json["completed"] = live.completed;
  json["interval_completed"] = delta;
  json["throughput_rps"] = live.throughput_rps;
  json["queue_depth"] = depth;
  json["pack_occupancy"] = live.pack_occupancy();
  json["rows_per_pack"] = live.rows_per_pack();
  json["p50_us"] = live.total.p50_us;
  json["p95_us"] = live.total.p95_us;
  json["p99_us"] = live.total.p99_us;
  json["kernel_backend"] = kernel.backend;
  // Placement gauges that are live mid-run (worker arena stats only land in
  // the collector at drain; these two are process-global and always current).
  json["numa_mode"] = std::string(mem::to_string(mem::numa_mode()));
  json["numa_nodes"] = mem::topology().nodes();
  json["cross_node_rows"] = static_cast<std::size_t>(
      model::RowPartitionPool::global_cross_node_rows() - xnode_rows_base);
  snapshot.json = json;
  return snapshot;
}

/// The kernel table behind this model's norm layers, rendered for metrics.
KernelTuningInfo kernel_tuning_info(const model::ModelConfig& model) {
  KernelTuningInfo info;
  info.backend = kernels::active_name();
  info.d = model.d_model;
  info.norm_layers = 2 * model.n_blocks + (model.final_norm ? 1 : 0);
  return info;
}

/// One trace instant per norm layer naming the kernel table, so exported
/// traces show which backend served each layer. Table names are string
/// literals in the backend TUs — static storage, as the tracer requires.
void trace_kernel_choice(const KernelTuningInfo& info) {
  if (!obs::tracing_enabled()) return;
  for (std::size_t layer = 0; layer < info.norm_layers; ++layer) {
    obs::instant(kernels::active_name(), "kernels",
                 static_cast<std::uint32_t>(layer), 0);
  }
}

/// Whether the model can serve the prompt at all: non-empty, within its
/// positional range, every token inside its vocabulary. The session table
/// and the forward pass treat anything else as a broken precondition.
bool servable(const Request& request, const model::ModelConfig& model) {
  if (request.tokens.empty() || request.tokens.size() > model.max_seq_len) {
    return false;
  }
  return std::all_of(request.tokens.begin(), request.tokens.end(),
                     [&](int token) {
                       return token >= 0 &&
                              static_cast<std::size_t>(token) < model.vocab_size;
                     });
}

/// The completion record of a request rejected before it was queued.
RequestResult rejected_result(const Request& request) {
  RequestResult result;
  result.id = request.id;
  result.prompt_len = request.tokens.size();
  result.priority = request.priority;
  result.tenant = request.tenant;
  result.rejected = true;
  return result;
}

}  // namespace

Server::Server(ServerConfig config)
    : config_(std::move(config)), model_(config_.model) {
  HAAN_EXPECTS(core::is_norm_provider_name(config_.norm));
  HAAN_EXPECTS(core::is_norm_provider_name(config_.degrade_norm));
  HAAN_EXPECTS(config_.workers > 0);

  if (!config_.numa.empty()) {
    const std::optional<mem::NumaMode> mode = mem::parse_numa_mode(config_.numa);
    HAAN_EXPECTS(mode.has_value());  // "off" | "auto" | "interleave"
    mem::set_numa_mode_override(*mode);
  }

  provider_options_.width = config_.model.d_model;
  provider_options_.model_name = config_.model.name;
  provider_options_.norm_threads = config_.norm_threads;

  if (config_.norm != "exact") {
    if (config_.calibrate) {
      const auto calibration =
          core::calibrate_skip_plan(model_, config_.calibration);
      provider_options_.plan = calibration.plan;
    } else {
      provider_options_.plan = config_.preset_plan;
    }
  }
}

std::unique_ptr<model::NormProvider> Server::make_provider() const {
  auto provider = core::make_norm_provider(config_.norm, provider_options_);
  HAAN_ASSERT(provider != nullptr);
  return provider;
}

std::unique_ptr<model::NormProvider> Server::make_degrade_provider() const {
  auto provider =
      core::make_norm_provider(config_.degrade_norm, provider_options_);
  HAAN_ASSERT(provider != nullptr);
  return provider;
}

std::string to_string(ExecMode mode) {
  switch (mode) {
    case ExecMode::kChunked: return "chunked";
  }
  return "?";
}

ServeReport Server::run(const std::vector<Request>& workload) {
  RequestQueue queue(config_.queue_capacity);
  MetricsCollector metrics;
  WorkerPool::Options pool_options;
  pool_options.n_workers = config_.workers;
  pool_options.keep_hidden = config_.keep_hidden;
  pool_options.norm_threads = config_.norm_threads;
  pool_options.degrade_factory = [this] { return make_degrade_provider(); };

  StepSchedulerConfig step_config;
  step_config.batching = config_.scheduler;
  step_config.prefill_chunk = config_.prefill_chunk;
  SessionTable sessions(config_.model, kv_arenas_);
  StepScheduler scheduler(queue, sessions, step_config);
  WorkerPool pool(model_, scheduler, sessions,
                  [this] { return make_provider(); }, metrics,
                  scratch_arenas_, pool_options);
  // Cross-node rows are a process-global counter (pools are created and
  // destroyed with workers); the run's contribution is the delta.
  const std::uint64_t xnode_rows_base =
      model::RowPartitionPool::global_cross_node_rows();
  pool.start();

  const Clock::time_point start = Clock::now();

  std::unique_ptr<obs::SnapshotEmitter> emitter;
  if (config_.stats_interval_ms > 0) {
    obs::SnapshotEmitter::Options options;
    options.interval = std::chrono::milliseconds(config_.stats_interval_ms);
    options.json_path = config_.stats_json_path;
    // Sampling is safe mid-run: the collector and queue are mutex-guarded and
    // finalize() is a constant-cost histogram walk.
    emitter = std::make_unique<obs::SnapshotEmitter>(
        [&metrics, &queue, start, capacity = config_.scheduler.max_batch,
         kernel = kernel_tuning_info(config_.model), xnode_rows_base,
         last = std::size_t{0}]() mutable {
          return live_snapshot(metrics, queue, capacity, kernel, start,
                               xnode_rows_base, last);
        },
        options);
    emitter->start();
  }

  obs::set_thread_name("feeder");
  std::vector<RequestResult> rejected;
  for (const Request& request : workload) {
    if (config_.paced) {
      const auto arrival =
          start + std::chrono::microseconds(
                      static_cast<std::int64_t>(request.arrival_us));
      std::this_thread::sleep_until(arrival);
    }
    if (!servable(request, config_.model)) {
      rejected.push_back(rejected_result(request));
      metrics.record(rejected.back());
      continue;
    }
    Request admitted = request;
    {
      HAAN_TRACE_SPAN("enqueue", "serve",
                      static_cast<std::uint32_t>(request.id));
      // The flow starts here and finishes on whichever worker completes the
      // request — the exported trace draws the cross-thread arrow.
      obs::flow_begin("req", "serve", request.id);
      admitted.enqueued_at = Clock::now();
      const bool accepted = queue.push(std::move(admitted));
      HAAN_ASSERT(accepted);  // the server closes the queue only after feeding
    }
  }
  queue.close();
  pool.join();
  if (emitter != nullptr) emitter->stop();
  const double wall_us = elapsed_us(start, Clock::now());

  ServeReport report;
  report.results = pool.take_results();
  if (!rejected.empty()) {
    report.results.insert(report.results.end(),
                          std::make_move_iterator(rejected.begin()),
                          std::make_move_iterator(rejected.end()));
    std::sort(report.results.begin(), report.results.end(),
              [](const RequestResult& a, const RequestResult& b) {
                return a.id < b.id;
              });
  }
  // Worker scratch-arena growth arrived in the collector before join; the
  // sessions' KV-arena growth lives in the session table.
  metrics.add_arena_stats(sessions.arena_usage());
  report.metrics = metrics.finalize(wall_us);
  // The queue owns depth accounting under its own lock: the high watermark
  // (a feeder-side post-push sample can miss the true peak) and the
  // event-sampled mean, which covers pops as well so drain-phase decay is
  // represented.
  report.metrics.max_queue_depth = queue.high_watermark();
  report.metrics.mean_queue_depth = queue.mean_depth();
  report.metrics.pack_capacity = config_.scheduler.max_batch;
  report.metrics.kernel = kernel_tuning_info(config_.model);
  trace_kernel_choice(report.metrics.kernel);

  // Placement accounting: every arena is back in its pool by now, so the
  // pools' reservation is the server's; the topology and cross-node delta
  // are stamped here.
  report.metrics.mem.numa_mode = mem::to_string(mem::numa_mode());
  report.metrics.mem.nodes = static_cast<int>(mem::topology().nodes());
  report.metrics.mem.cross_node_rows =
      model::RowPartitionPool::global_cross_node_rows() - xnode_rows_base;
  report.metrics.mem.arena_bytes =
      kv_arenas_.reserved_bytes() + scratch_arenas_.reserved_bytes();
  HAAN_ENSURES(report.metrics.accounted_requests() == workload.size());
  return report;
}

ServeReport Server::run_reference(const std::vector<Request>& workload) {
  const std::unique_ptr<model::NormProvider> provider = make_provider();
  MetricsCollector metrics;

  const Clock::time_point start = Clock::now();
  std::vector<RequestResult> results;
  results.reserve(workload.size());
  for (const Request& request : workload) {
    if (!servable(request, config_.model)) {
      results.push_back(rejected_result(request));
      metrics.record(results.back());
      continue;
    }
    const Clock::time_point begin = Clock::now();
    // Re-forward oracle: greedy-decode by running a FULL forward over prompt
    // + tokens-so-far for every generated token. The final `hidden` covers
    // exactly the fed rows (the last generated token is returned, never fed),
    // matching incremental execution row for row.
    const std::size_t decode_cap =
        config_.model.max_seq_len - request.tokens.size() + 1;
    const std::size_t max_new = std::min(request.max_new_tokens, decode_cap);
    std::vector<int> tokens = request.tokens;
    std::vector<int> generated;
    tensor::Tensor hidden = model_.forward_hidden(tokens, *provider);
    while (generated.size() < max_new) {
      const auto logits =
          model_.logits_for_hidden_row(hidden.row(hidden.shape().dim(0) - 1));
      generated.push_back(static_cast<int>(tensor::argmax(logits)));
      if (generated.size() == max_new) break;
      tokens.push_back(generated.back());
      hidden = model_.forward_hidden(tokens, *provider);
    }
    const Clock::time_point done = Clock::now();

    RequestResult result;
    result.id = request.id;
    result.batch_size = 1;
    result.prompt_len = request.tokens.size();
    result.hidden_checksum = checksum_floats(hidden.data());
    result.generated = std::move(generated);
    if (config_.keep_hidden) {
      result.hidden.assign(hidden.data().begin(), hidden.data().end());
    }
    result.compute_us = elapsed_us(begin, done);
    result.total_us = result.compute_us;
    metrics.record(result);
    metrics.record_batch(1);
    results.push_back(std::move(result));
  }
  const double wall_us = elapsed_us(start, Clock::now());
  if (const core::HaanNormProvider* haan = core::as_haan_provider(provider.get())) {
    metrics.add_norm_counters(haan->counters());
  }

  ServeReport report;
  report.results = std::move(results);
  report.metrics = metrics.finalize(wall_us);
  report.metrics.kernel = kernel_tuning_info(config_.model);
  report.metrics.mem.numa_mode = mem::to_string(mem::numa_mode());
  report.metrics.mem.nodes = static_cast<int>(mem::topology().nodes());
  HAAN_ENSURES(report.metrics.accounted_requests() == workload.size());
  return report;
}

}  // namespace haan::serve
