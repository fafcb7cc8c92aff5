#include "serve/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/table.hpp"

namespace haan::serve {

common::LogHistogram::Config latency_histogram_config() {
  common::LogHistogram::Config config;
  config.min_value = 1.0;    // 1 us resolution floor
  config.max_value = 1e9;    // 1000 s overflow cap
  config.buckets_per_decade = 48;
  return config;
}

LatencySummary summarize_latency(std::vector<double> samples) {
  LatencySummary summary;
  // Empty sample sets (a drained-empty run with zero completed requests) must
  // report all-zero summaries; everything below indexes into `samples`.
  if (samples.empty()) return summary;
  std::sort(samples.begin(), samples.end());
  // Nearest-rank: smallest value with at least ceil(q*n) samples <= it.
  const auto nearest_rank = [&](double q) {
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(q * static_cast<double>(samples.size())));
    if (rank > 0) --rank;  // 1-based rank -> 0-based index
    return samples[rank];
  };
  summary.count = samples.size();
  double sum = 0.0;
  for (const double s : samples) sum += s;
  summary.mean_us = sum / static_cast<double>(samples.size());
  summary.max_us = samples.back();
  summary.p50_us = nearest_rank(0.50);
  summary.p95_us = nearest_rank(0.95);
  summary.p99_us = nearest_rank(0.99);
  return summary;
}

LatencySummary summarize_histogram(const common::LogHistogram& histogram) {
  LatencySummary summary;
  summary.count = histogram.count();
  summary.mean_us = histogram.mean();
  summary.max_us = histogram.max();
  summary.p50_us = histogram.quantile(0.50);
  summary.p95_us = histogram.quantile(0.95);
  summary.p99_us = histogram.quantile(0.99);
  return summary;
}

common::Json LatencySummary::to_json() const {
  common::Json::Object out;
  out["count"] = count;
  out["mean_us"] = mean_us;
  out["p50_us"] = p50_us;
  out["p95_us"] = p95_us;
  out["p99_us"] = p99_us;
  out["max_us"] = max_us;
  return out;
}

common::Json PrioritySummary::to_json() const {
  common::Json::Object out;
  out["latency_total"] = total.to_json();
  out["shed"] = shed;
  out["degraded"] = degraded;
  out["deadline_missed"] = deadline_missed;
  return out;
}

common::Json KernelTuningInfo::to_json() const {
  common::Json::Object out;
  out["backend"] = backend;
  out["d"] = d;
  out["norm_layers"] = norm_layers;
  return out;
}

common::Json MemPlacementInfo::to_json() const {
  common::Json::Object out;
  out["nodes"] = nodes;
  return out;
}

common::Json ServeMetrics::to_json() const {
  common::Json::Object out;
  out["completed"] = completed;
  out["wall_us"] = wall_us;
  out["throughput_rps"] = throughput_rps;
  out["latency_total"] = total.to_json();
  out["latency_queue"] = queued.to_json();
  out["latency_compute"] = compute.to_json();
  out["latency_ttft"] = ttft.to_json();
  out["latency_intertoken"] = intertoken.to_json();
  out["batches"] = static_cast<std::size_t>(batches);
  out["mean_batch_size"] = mean_batch_size;
  out["max_batch_size"] = max_batch_size;
  out["max_queue_depth"] = max_queue_depth;
  out["mean_queue_depth"] = mean_queue_depth;
  out["packed_forwards"] = static_cast<std::size_t>(packed_forwards);
  out["packed_rows"] = packed_rows;
  out["packed_sequences"] = packed_sequences;
  out["rows_per_pack"] = rows_per_pack();
  out["pack_occupancy"] = pack_occupancy();
  out["prefill_rows"] = prefill_rows;
  out["decode_rows"] = decode_rows;
  out["prefill_packs"] = static_cast<std::size_t>(prefill_packs);
  out["decode_packs"] = static_cast<std::size_t>(decode_packs);
  out["mixed_packs"] = static_cast<std::size_t>(mixed_packs);
  out["prefill_rows_per_pack"] = prefill_rows_per_pack();
  out["decode_rows_per_pack"] = decode_rows_per_pack();
  out["kv_bytes_resident"] = kv_bytes_resident;
  out["max_kv_bytes"] = max_kv_bytes;
  out["shed_requests"] = shed_requests;
  out["rejected_requests"] = rejected_requests;
  out["failed_requests"] = failed_requests;
  out["degraded_requests"] = degraded_requests;
  out["deadline_missed_requests"] = deadline_missed_requests;
  if (!per_priority.empty()) {
    common::Json::Object priorities;
    for (const auto& [priority, summary] : per_priority) {
      priorities[std::to_string(priority)] = summary.to_json();
    }
    out["per_priority"] = priorities;
  }
  common::Json::Object counters;
  counters["norm_calls"] = norm.norm_calls;
  counters["isd_computed"] = norm.isd_computed;
  counters["isd_predicted"] = norm.isd_predicted;
  counters["elements_read"] = norm.elements_read;
  counters["fused_residual_norms"] = norm.fused_residual_norms;
  counters["batched_norm_calls"] = norm.batched_norm_calls;
  counters["rows_per_batched_call"] = rows_per_batched_call();
  out["norm_counters"] = counters;
  if (!kernel.backend.empty()) out["kernel"] = kernel.to_json();
  if (mem.nodes > 0) out["mem"] = mem.to_json();
  return out;
}

std::string ServeMetrics::to_string() const {
  common::Table table({"metric", "mean", "p50", "p95", "p99", "max"});
  const auto row = [](const char* name, const LatencySummary& s) {
    return std::vector<std::string>{
        name,
        common::format_double(s.mean_us / 1000.0, 3),
        common::format_double(s.p50_us / 1000.0, 3),
        common::format_double(s.p95_us / 1000.0, 3),
        common::format_double(s.p99_us / 1000.0, 3),
        common::format_double(s.max_us / 1000.0, 3)};
  };
  table.add_row(row("total latency (ms)", total));
  table.add_row(row("queue latency (ms)", queued));
  table.add_row(row("compute latency (ms)", compute));
  if (ttft.count > 0) table.add_row(row("ttft (ms)", ttft));
  if (intertoken.count > 0) {
    table.add_row(row("inter-token (ms)", intertoken));
  }
  if (per_priority.size() > 1) {
    for (const auto& [priority, summary] : per_priority) {
      table.add_row(
          row(("p" + std::to_string(priority) + " total (ms)").c_str(),
              summary.total));
    }
  }

  std::ostringstream out;
  out << table.render();
  out << "completed        : " << completed << " requests in "
      << common::format_double(wall_us / 1e6, 3) << " s ("
      << common::format_double(throughput_rps, 1) << " req/s)\n";
  out << "batches          : " << batches << " (mean size "
      << common::format_double(mean_batch_size, 2) << ", max " << max_batch_size
      << ")\n";
  out << "queue depth      : max " << max_queue_depth << ", mean "
      << common::format_double(mean_queue_depth, 2) << "\n";
  if (packed_forwards > 0) {
    out << "packs            : " << packed_forwards << " ("
        << common::format_double(rows_per_pack(), 1) << " rows/pack, occupancy "
        << common::format_double(pack_occupancy(), 2) << ")\n";
  }
  if (prefill_rows + decode_rows > 0) {
    out << "phase rows       : prefill " << prefill_rows << " ("
        << common::format_double(prefill_rows_per_pack(), 1)
        << " rows/pack), decode " << decode_rows << " ("
        << common::format_double(decode_rows_per_pack(), 1) << " rows/pack)\n";
    out << "pack phases      : prefill " << prefill_packs << ", decode "
        << decode_packs << ", mixed " << mixed_packs << "\n";
    out << "kv cache         : max " << max_kv_bytes << " bytes resident\n";
  }
  if (rejected_requests > 0) {
    out << "rejected         : " << rejected_requests
        << " requests the model cannot serve\n";
  }
  if (failed_requests > 0) {
    out << "failed           : " << failed_requests
        << " requests whose pack's forward threw\n";
  }
  if (shed_requests + degraded_requests + deadline_missed_requests > 0) {
    out << "sla outcomes     : shed " << shed_requests << ", degraded "
        << degraded_requests << ", deadline-missed " << deadline_missed_requests
        << "\n";
  }
  out << "norm counters    : calls " << norm.norm_calls << ", isd computed "
      << norm.isd_computed << ", isd predicted " << norm.isd_predicted
      << ", elements read " << norm.elements_read << ", fused residual+norm "
      << norm.fused_residual_norms << "\n";
  out << "batched norms    : " << norm.batched_norm_calls << " calls ("
      << common::format_double(rows_per_batched_call(), 2) << " rows/call)\n";
  if (!kernel.backend.empty()) {
    out << "kernel backend   : " << kernel.backend << " over "
        << kernel.norm_layers << " norm layers\n";
  }
  if (mem.nodes > 0) {
    out << "memory placement : " << mem.nodes << " node"
        << (mem.nodes == 1 ? "" : "s") << "\n";
  }
  return out.str();
}

MetricsCollector::MetricsCollector()
    : total_us_(latency_histogram_config()),
      queue_us_(latency_histogram_config()),
      compute_us_(latency_histogram_config()),
      ttft_us_(latency_histogram_config()),
      intertoken_us_(latency_histogram_config()) {}

MetricsCollector::PriorityBucket& MetricsCollector::priority_bucket(
    int priority) {
  return per_priority_[priority];  // default-constructs the slice lazily
}

void MetricsCollector::record(const RequestResult& result) {
  std::lock_guard<std::mutex> lock(mu_);
  if (result.rejected) {
    ++rejected_;  // never queued: no latency, no priority slice
    return;
  }
  if (result.failed) {
    ++failed_;  // never finished a forward: no latency, no priority slice
    return;
  }
  PriorityBucket& bucket = priority_bucket(result.priority);
  if (result.shed) {
    // Shed requests never ran: they count as SLA outcomes, not latencies
    // (their totals would poison the served-latency percentiles).
    ++shed_;
    ++bucket.shed;
    ++deadline_missed_;
    ++bucket.deadline_missed;
    return;
  }
  total_us_.record(result.total_us);
  queue_us_.record(result.queue_us);
  compute_us_.record(result.compute_us);
  bucket.total_us.record(result.total_us);
  if (result.degraded) {
    ++degraded_;
    ++bucket.degraded;
  }
  if (result.deadline_missed) {
    ++deadline_missed_;
    ++bucket.deadline_missed;
  }
}

void MetricsCollector::record_batch(std::size_t batch_size) {
  std::lock_guard<std::mutex> lock(mu_);
  ++batch_count_;
  batch_requests_ += batch_size;
  max_batch_size_ = std::max(max_batch_size_, batch_size);
}

void MetricsCollector::record_packed(std::size_t rows, std::size_t sequences) {
  std::lock_guard<std::mutex> lock(mu_);
  ++packed_forwards_;
  packed_rows_ += rows;
  packed_sequences_ += sequences;
}

void MetricsCollector::record_step_pack(std::size_t prefill_rows,
                                        std::size_t decode_rows) {
  std::lock_guard<std::mutex> lock(mu_);
  prefill_rows_ += prefill_rows;
  decode_rows_ += decode_rows;
  if (prefill_rows > 0 && decode_rows > 0) {
    ++mixed_packs_;
  } else if (decode_rows > 0) {
    ++decode_packs_;
  } else {
    ++prefill_packs_;
  }
}

void MetricsCollector::record_ttft(double us) {
  std::lock_guard<std::mutex> lock(mu_);
  ttft_us_.record(us);
}

void MetricsCollector::record_intertoken(double us) {
  std::lock_guard<std::mutex> lock(mu_);
  intertoken_us_.record(us);
}

void MetricsCollector::record_kv_bytes(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  kv_bytes_resident_ = bytes;
  max_kv_bytes_ = std::max(max_kv_bytes_, bytes);
}

void MetricsCollector::add_norm_counters(const NormCounters& counters) {
  std::lock_guard<std::mutex> lock(mu_);
  norm_.norm_calls += counters.norm_calls;
  norm_.isd_computed += counters.isd_computed;
  norm_.isd_predicted += counters.isd_predicted;
  norm_.elements_read += counters.elements_read;
  norm_.fused_residual_norms += counters.fused_residual_norms;
  norm_.batched_norm_calls += counters.batched_norm_calls;
}

std::size_t MetricsCollector::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_us_.count();
}

ServeMetrics MetricsCollector::finalize(double wall_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeMetrics metrics;
  metrics.completed = total_us_.count();
  metrics.wall_us = wall_us;
  metrics.throughput_rps =
      wall_us > 0.0 ? static_cast<double>(metrics.completed) / (wall_us / 1e6)
                    : 0.0;
  metrics.total = summarize_histogram(total_us_);
  metrics.queued = summarize_histogram(queue_us_);
  metrics.compute = summarize_histogram(compute_us_);
  metrics.ttft = summarize_histogram(ttft_us_);
  metrics.intertoken = summarize_histogram(intertoken_us_);

  metrics.batches = batch_count_;
  metrics.mean_batch_size =
      batch_count_ == 0 ? 0.0
                        : static_cast<double>(batch_requests_) /
                              static_cast<double>(batch_count_);
  metrics.max_batch_size = max_batch_size_;

  metrics.packed_forwards = packed_forwards_;
  metrics.packed_rows = packed_rows_;
  metrics.packed_sequences = packed_sequences_;
  metrics.prefill_rows = prefill_rows_;
  metrics.decode_rows = decode_rows_;
  metrics.prefill_packs = prefill_packs_;
  metrics.decode_packs = decode_packs_;
  metrics.mixed_packs = mixed_packs_;
  metrics.kv_bytes_resident = kv_bytes_resident_;
  metrics.max_kv_bytes = max_kv_bytes_;
  metrics.shed_requests = shed_;
  metrics.rejected_requests = rejected_;
  metrics.failed_requests = failed_;
  metrics.degraded_requests = degraded_;
  metrics.deadline_missed_requests = deadline_missed_;
  for (const auto& [priority, bucket] : per_priority_) {
    PrioritySummary summary;
    summary.total = summarize_histogram(bucket.total_us);
    summary.shed = bucket.shed;
    summary.degraded = bucket.degraded;
    summary.deadline_missed = bucket.deadline_missed;
    metrics.per_priority.emplace(priority, std::move(summary));
  }
  metrics.norm = norm_;
  return metrics;
}

std::size_t MetricsCollector::approx_memory_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t bytes = sizeof(*this) + total_us_.memory_bytes() +
                      queue_us_.memory_bytes() + compute_us_.memory_bytes() +
                      ttft_us_.memory_bytes() + intertoken_us_.memory_bytes();
  // One fixed-size slice per distinct priority class — constant for a fixed
  // class set, independent of completed-request count.
  for (const auto& [priority, bucket] : per_priority_) {
    bytes += sizeof(bucket) + bucket.total_us.memory_bytes();
  }
  return bytes;
}

}  // namespace haan::serve
