// Serving throughput/latency bench: drives the haan::serve runtime with a
// synthetic workload and reports p50/p95/p99 latency, throughput, batch and
// queue statistics, phase latencies (TTFT / inter-token under decode), and
// aggregated norm counters. With --verify=true (the default) the multi-worker
// run is checked bit-for-bit against a single-threaded reference execution of
// the same workload (the re-forward oracle when decode traffic is present).
//
// Execution: every request is served as a session through step packs;
// --prefill-chunk bounds prompt rows per prefill step; --decode /
// --decode-tokens add per-request decode budgets to the workload.
//
// Scheduling: --policy picks the batch-formation order (fifo | binned | edf)
// with --bin-width / --max-rows / --aging-us; --deadline-us / --priority-levels
// / --tenants / --tenant-rate put an SLA mix on the workload;
// --overload=shed|degrade|both arms admission control with --shed-slack-us /
// --degrade-slack-us thresholds (--degrade-norm picks the cheap lane's
// provider). --max-p99-us gates the run's total p99 latency.
// With --policy-sweep=true the bench calibrates closed-loop FIFO capacity on
// a ragged bimodal mix (median of three runs), then replays the same offered
// load (--load-factor x capacity) paced under FIFO, binned and EDF — equal
// arrivals, only the formation order differs — gating the binned/EDF
// pack-occupancy gain (--min-occupancy-gain) and p99 ratio (--max-p99-ratio)
// against FIFO, plus a saturating-overload cell (EDF + shedding at the calibrated capacity)
// that must shed low-priority traffic while keeping the high-priority class
// served (--overload-max-p99-us bounds its p99). Every sweep cell is
// verified bit-for-bit against the reference oracle.
//
// Run cost: the main run reports its minor page faults and user/system CPU
// seconds (getrusage(RUSAGE_SELF) deltas around
// Server::run, so every thread of the process counts). Reported, not gated.
//
// Observability: --trace-out exports the run as Chrome Trace Event JSON
// (Perfetto-loadable) and cross-checks it against the report (per-thread
// begin/end balance, one flow start+finish per request and, when every
// request rides exactly one pack, sum of forward spans within 5% of the
// compute total); --stats-interval / --stats-json stream live snapshots
// during the run.
//
// Integer flags are range-checked up front: an out-of-range value (a negative
// one would otherwise wrap to ~2^64) exits 1 with a message before any
// workload or Server is built.
//
//   ./build/bench/serve_throughput --norm=haan --workers=4 --scenario=steady
//       --seed=1 --json=/tmp/serve.json
//   ./build/bench/serve_throughput --decode=geometric --decode-tokens=8
//       --paced=false --trace-out=/tmp/decode_trace.json
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "common/cli.hpp"
#include "common/json_lite.hpp"
#include "core/provider_factory.hpp"
#include "kernels/kernels.hpp"
#include "mem/topology.hpp"
#include "model/row_partition.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

using namespace haan;

namespace {

/// Closed-loop metrics of one server configuration over `workload`.
serve::ServeMetrics closed_loop_metrics(serve::ServerConfig config,
                                        const std::vector<serve::Request>& workload) {
  config.paced = false;
  config.keep_hidden = false;
  serve::Server server(config);
  return server.run(workload).metrics;
}

/// One cell of the scheduling-policy sweep (equal offered load, paced).
struct PolicyCell {
  std::string policy;
  double rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double occupancy = 0.0;  ///< packed sequences / (packs x max_batch)
  std::size_t shed = 0;
  std::size_t degraded = 0;
  bool verified = false;  ///< served results bit-identical to the oracle

  /// Full metrics of the cell's run (per-priority slices for overload cells).
  serve::ServeMetrics metrics;

  /// p99 of the HIGHEST priority class (total p99 when single-class). Total
  /// p99 is nearly reorder-invariant in a backlogged work-conserving system
  /// (reordering only changes which request gets which completion slot), so
  /// the class EDF exists to protect is where its latency cut shows.
  double high_priority_p99_us() const {
    return metrics.per_priority.empty()
               ? p99_us
               : metrics.per_priority.rbegin()->second.total.p99_us;
  }

  common::Json to_json() const {
    common::Json::Object entry;
    entry["policy"] = policy;
    entry["rps"] = rps;
    entry["p50_us"] = p50_us;
    entry["p99_us"] = p99_us;
    entry["high_priority_p99_us"] = high_priority_p99_us();
    entry["pack_occupancy"] = occupancy;
    entry["shed"] = shed;
    entry["degraded"] = degraded;
    entry["verified"] = verified;
    return common::Json(entry);
  }
};

/// Runs one paced policy cell and verifies every SERVED (non-shed,
/// non-degraded) result bit-for-bit against `oracle` (indexed by request id).
PolicyCell run_policy_cell(serve::ServerConfig config,
                           const std::vector<serve::Request>& workload,
                           const serve::ServeReport& oracle) {
  config.paced = true;
  config.keep_hidden = false;
  config.stats_interval_ms = 0;
  serve::Server server(config);
  const serve::ServeReport report = server.run(workload);

  PolicyCell cell;
  cell.policy = serve::to_string(server.config().scheduler.policy.policy);
  cell.rps = report.metrics.throughput_rps;
  cell.p50_us = report.metrics.total.p50_us;
  cell.p99_us = report.metrics.total.p99_us;
  cell.occupancy = report.metrics.pack_occupancy();
  cell.shed = report.metrics.shed_requests;
  cell.degraded = report.metrics.degraded_requests;
  cell.metrics = report.metrics;
  cell.verified = report.results.size() == oracle.results.size();
  for (std::size_t i = 0; cell.verified && i < report.results.size(); ++i) {
    const serve::RequestResult& result = report.results[i];
    if (result.shed || result.degraded) continue;  // no primary-lane oracle
    cell.verified = result.hidden_checksum == oracle.results[i].hidden_checksum;
  }
  return cell;
}

/// Self-check of the exported Chrome trace against the run's own metrics.
struct TraceCheck {
  bool parsed = false;
  bool balanced = false;   ///< every "E" had a "B"; no span left open per tid
  bool flows_ok = false;   ///< one flow start + one finish per served request
  bool compute_match = false;  ///< Σ forward spans vs Σ pack compute <= 5%
  std::uint64_t dropped = 0;
  std::size_t events = 0;
  double forward_span_us = 0.0;
  double compute_total_us = 0.0;
  double norm_span_us = 0.0;
  bool ok() const { return parsed && balanced && flows_ok && compute_match; }
};

/// Parses `json` (the Chrome trace of `report`'s run) and cross-checks it:
/// per-thread begin/end balance, exactly one flow start/finish per request,
/// and — the wall-clock invariant — the summed duration of "forward" spans
/// matching the metrics' pack compute total within 5% (both time the same
/// forward_hidden_batch calls with the same monotonic clock). The total is
/// only reconstructible when every request rode exactly one pack
/// (`one_pack_per_request`: prefill-only traffic, whole-prompt steps): each
/// result then carries its pack's compute_us, deduped by pack sequence.
/// Otherwise sessions accumulate every pack they rode (a shared pack's
/// duration lands in several sessions) and the 5% gate is skipped — balance
/// and flow checks still apply. Ring wrap-around (dropped > 0) voids the
/// duration sums, so the 5% gate only applies to loss-free traces.
TraceCheck check_trace(const std::string& json, const serve::ServeReport& report,
                       bool one_pack_per_request, std::uint64_t dropped) {
  TraceCheck check;
  check.dropped = dropped;
  const auto parsed = common::Json::parse(json);
  if (!parsed.has_value()) return check;
  const common::Json* events = parsed->find("traceEvents");
  if (events == nullptr || !events->is_array()) return check;
  check.parsed = true;
  check.events = events->as_array().size();

  std::map<int, std::vector<std::pair<std::string, double>>> open;  // per tid
  std::size_t flow_starts = 0, flow_finishes = 0;
  bool balanced = true;
  for (const common::Json& event : events->as_array()) {
    const std::string& ph = event.find("ph")->as_string();
    if (ph == "M") continue;
    const int tid = static_cast<int>(event.find("tid")->as_number());
    const double ts = event.find("ts")->as_number();
    if (ph == "B") {
      open[tid].emplace_back(event.find("name")->as_string(), ts);
    } else if (ph == "E") {
      auto& stack = open[tid];
      if (stack.empty()) {
        balanced = false;
        continue;
      }
      const auto [name, begin_ts] = stack.back();
      stack.pop_back();
      const double duration = ts - begin_ts;
      if (name == "forward") check.forward_span_us += duration;
      if (name.rfind("norm/", 0) == 0) check.norm_span_us += duration;
    } else if (ph == "s") {
      ++flow_starts;
    } else if (ph == "f") {
      ++flow_finishes;
    }
  }
  for (const auto& [tid, stack] : open) balanced = balanced && stack.empty();
  check.balanced = balanced;
  check.flows_ok = flow_starts == report.results.size() &&
                   flow_finishes == report.results.size();

  if (!one_pack_per_request) {
    check.compute_match = true;
    return check;
  }
  // Every request in a pack carries the pack's compute_us: count each pack
  // sequence once (shed results ride a pack's sequence with compute 0).
  std::map<std::uint64_t, double> by_pack;
  for (const serve::RequestResult& result : report.results) {
    double& us = by_pack[result.batch];
    us = std::max(us, result.compute_us);
  }
  for (const auto& [pack, us] : by_pack) check.compute_total_us += us;
  const double rel =
      check.compute_total_us > 0.0
          ? std::abs(check.forward_span_us - check.compute_total_us) /
                check.compute_total_us
          : 1.0;
  check.compute_match = dropped > 0 || rel <= 0.05;
  return check;
}

/// What one Server::run cost the whole process, from getrusage(RUSAGE_SELF)
/// samples taken around it.
struct RunCost {
  long minor_faults = 0;
  double user_s = 0.0;
  double sys_s = 0.0;

  common::Json to_json() const {
    common::Json::Object entry;
    entry["minor_faults"] = static_cast<long long>(minor_faults);
    entry["user_cpu_s"] = user_s;
    entry["sys_cpu_s"] = sys_s;
    return common::Json(entry);
  }

  std::string to_string() const {
    char line[128];
    std::snprintf(line, sizeof(line),
                  "%ld minor faults, %.3f s system CPU, %.3f s user CPU",
                  minor_faults, sys_s, user_s);
    return line;
  }
};

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
}

/// server.run(workload), with its process-wide cost stored in `cost`.
serve::ServeReport run_costed(serve::Server& server,
                              const std::vector<serve::Request>& workload,
                              RunCost& cost) {
  rusage before{};
  getrusage(RUSAGE_SELF, &before);
  serve::ServeReport report = server.run(workload);
  rusage after{};
  getrusage(RUSAGE_SELF, &after);
  cost.minor_faults = after.ru_minflt - before.ru_minflt;
  cost.user_s = cpu_seconds(after.ru_utime) - cpu_seconds(before.ru_utime);
  cost.sys_s = cpu_seconds(after.ru_stime) - cpu_seconds(before.ru_stime);
  return report;
}

/// Bound on the count, length and duration flags: far above any run this
/// bench makes, far below a wrapped negative.
constexpr std::size_t kMaxFlagValue = std::size_t{1} << 20;

/// Bound on --width: 4x the widest modelled network (llama-7b, d = 4096).
constexpr std::size_t kMaxWidth = 16384;

/// Reads integer flag `name`, which must lie in [lo, hi]. Otherwise prints why,
/// clears `in_range` and returns `lo` (a negative value would otherwise wrap
/// to ~2^64).
std::size_t size_flag(const common::CliParser& cli, const char* name,
                      std::size_t lo, std::size_t hi, bool& in_range) {
  const long long value = cli.get_int(name);
  if (value < static_cast<long long>(lo) || value > static_cast<long long>(hi)) {
    std::fprintf(stderr, "--%s must be in [%zu, %zu], got %lld\n", name, lo, hi,
                 value);
    in_range = false;
    return lo;
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli("serving throughput/latency under synthetic traffic");
  cli.add_flag("model", "tiny", model::surrogate_names_help());
  cli.add_flag("width", "0", "surrogate embedding width (0 = model default)");
  cli.add_flag("norm", "haan", core::norm_provider_help());
  cli.add_flag("workers", "4", "worker threads");
  cli.add_flag("requests", "1000", "requests to serve");
  cli.add_flag("scenario", "steady",
               "steady | bursty | ramp | diurnal | overload");
  cli.add_flag("rate", "2000", "mean Poisson arrival rate, req/s");
  cli.add_flag("burst-factor", "4", "bursty peak/trough factor");
  cli.add_flag("overload-factor", "4",
               "overload scenario: spike rate multiplier over the middle of "
               "the stream");
  cli.add_flag("length", "uniform", "fixed | uniform | bimodal prompt lengths");
  cli.add_flag("min-prompt", "8", "min prompt tokens");
  cli.add_flag("max-prompt", "32", "max prompt tokens");
  cli.add_flag("max-batch", "8", "scheduler max batch size");
  cli.add_flag("max-wait-us", "1000", "scheduler max batching wait (us)");
  cli.add_flag("queue-cap", "128", "request queue capacity");
  cli.add_flag("policy", "fifo", "batch formation order: fifo | binned | edf");
  cli.add_flag("bin-width", "16", "prompt-length bin width (binned/edf)");
  cli.add_flag("max-rows", "0",
               "row budget per batch (sum of prompt rows; 0 = unlimited)");
  cli.add_flag("aging-us", "0",
               "EDF anti-starvation: +1 effective priority per this many "
               "microseconds waited (0 = off)");
  cli.add_flag("overload", "none",
               "admission control under overload: none | shed | degrade | "
               "both (only deadline-bearing requests are ever shed/degraded)");
  cli.add_flag("shed-slack-us", "0",
               "shed when remaining deadline slack drops below this (us)");
  cli.add_flag("degrade-slack-us", "0",
               "degrade to --degrade-norm when slack drops below this (us)");
  cli.add_flag("degrade-norm", "haan-full",
               "provider for degraded requests (the cheap lane)");
  cli.add_flag("deadline-us", "0",
               "flat per-request latency budget (0 = no deadlines)");
  cli.add_flag("priority-levels", "1", "scheduling classes in the workload");
  cli.add_flag("tenants", "1", "workload tenants (uniform mix)");
  cli.add_flag("tenant-rate", "0",
               "per-tenant arrival-rate cap, req/s (0 = uncapped)");
  cli.add_flag("max-p99-us", "0",
               "fail unless the run's total p99 latency is <= this (us; 0 "
               "disables)");
  cli.add_flag("policy-sweep", "false",
               "sweep fifo | binned | edf paced at equal offered load on a "
               "ragged bimodal mix (+ an EDF overload-shedding cell), every "
               "cell verified bit-for-bit against the reference oracle");
  cli.add_flag("load-factor", "0.8",
               "policy sweep offered load as a fraction of the calibrated "
               "closed-loop FIFO capacity");
  cli.add_flag("min-occupancy-gain", "0",
               "fail unless the best binned/edf pack occupancy reaches this "
               "multiple of FIFO's at equal offered load (0 disables; "
               "implies --policy-sweep)");
  cli.add_flag("max-p99-ratio", "0",
               "fail unless the best binned/edf HIGH-PRIORITY-class p99 stays "
               "within this multiple of FIFO's at equal offered load (0 "
               "disables; implies --policy-sweep)");
  cli.add_flag("overload-max-p99-us", "0",
               "fail unless the overload cell's HIGH-priority p99 is <= this "
               "(us; 0 disables)");
  cli.add_flag("seed", "1", "workload seed");
  cli.add_flag("paced", "true", "honor Poisson arrival times (open-loop)");
  cli.add_flag("calibrate", "true", "calibrate a skip plan at startup");
  cli.add_flag("prefill-chunk", "0",
               "prompt rows per prefill step (0 = whole remainder)");
  cli.add_flag("decode", "none",
               "per-request decode budget: none | fixed | geometric");
  cli.add_flag("decode-tokens", "8", "fixed decode length / geometric mean");
  cli.add_flag("max-decode", "64", "cap on sampled decode lengths");
  cli.add_flag("norm-threads", "0",
               "row-partition threads per worker (0 = clamp(cpus / workers, "
               "1, 4), 1 = serial)");
  cli.add_flag("verify", "true",
               "compare against a single-threaded reference, bit-for-bit");
  cli.add_flag("compare-requests", "240", "requests per sweep cell");
  cli.add_flag("trace-out", "",
               "trace the serve run and export Chrome/Perfetto JSON to this "
               "path, self-checking span balance, per-request flow links and "
               "forward-span wall time vs packed compute (5%)");
  cli.add_flag("stats-interval", "0",
               "emit a live metrics snapshot (log line, component \"stats\") "
               "every N ms while the run is in flight (0 disables)");
  cli.add_flag("stats-json", "",
               "append one JSON object per snapshot to this path");
  cli.add_flag("json", "", "write the report as JSON to this path");
  if (!cli.parse(argc, argv)) return cli.error() ? 1 : 0;

  bool in_range = true;
  const std::size_t width = size_flag(cli, "width", 0, kMaxWidth, in_range);
  serve::ServerConfig config;
  config.workers = size_flag(cli, "workers", 1, model::kMaxThreads, in_range);
  config.norm_threads =
      size_flag(cli, "norm-threads", 0, model::kMaxThreads, in_range);
  config.queue_capacity =
      size_flag(cli, "queue-cap", 1, kMaxFlagValue, in_range);
  config.scheduler.max_batch =
      size_flag(cli, "max-batch", 1, kMaxFlagValue, in_range);
  config.scheduler.max_wait = std::chrono::microseconds(
      size_flag(cli, "max-wait-us", 0, kMaxFlagValue, in_range));
  config.scheduler.max_rows =
      size_flag(cli, "max-rows", 0, kMaxFlagValue, in_range);
  config.scheduler.policy.bin_width =
      size_flag(cli, "bin-width", 1, kMaxFlagValue, in_range);
  config.prefill_chunk =
      size_flag(cli, "prefill-chunk", 0, kMaxFlagValue, in_range);
  config.stats_interval_ms =
      size_flag(cli, "stats-interval", 0, kMaxFlagValue, in_range);
  serve::WorkloadConfig workload_config;
  workload_config.n_requests =
      size_flag(cli, "requests", 0, kMaxFlagValue, in_range);
  workload_config.min_prompt =
      size_flag(cli, "min-prompt", 1, kMaxFlagValue, in_range);
  workload_config.max_prompt =
      size_flag(cli, "max-prompt", 1, kMaxFlagValue, in_range);
  workload_config.decode_tokens =
      size_flag(cli, "decode-tokens", 0, kMaxFlagValue, in_range);
  workload_config.max_decode =
      size_flag(cli, "max-decode", 0, kMaxFlagValue, in_range);
  workload_config.priority_levels =
      size_flag(cli, "priority-levels", 1, kMaxFlagValue, in_range);
  workload_config.tenants = size_flag(cli, "tenants", 1, kMaxFlagValue, in_range);
  const std::size_t sweep_requests =
      size_flag(cli, "compare-requests", 0, kMaxFlagValue, in_range);
  if (!in_range) return 1;

  const auto model_config = model::surrogate_by_name(cli.get("model"), width);
  if (!model_config) {
    std::fprintf(stderr, "unknown --model '%s' (expected %s)\n",
                 cli.get("model").c_str(), model::surrogate_names_help().c_str());
    return 1;
  }
  config.model = *model_config;
  config.norm = cli.get("norm");
  if (!core::is_norm_provider_name(config.norm)) {
    std::fprintf(stderr, "unknown --norm '%s' (expected %s)\n",
                 config.norm.c_str(), core::norm_provider_help().c_str());
    return 1;
  }
  const auto sched_policy = serve::try_policy_from_string(cli.get("policy"));
  if (!sched_policy) {
    std::fprintf(stderr,
                 "unknown --policy '%s' (expected fifo | binned | edf)\n",
                 cli.get("policy").c_str());
    return 1;
  }
  config.scheduler.policy.policy = *sched_policy;
  config.scheduler.policy.aging_us = cli.get_double("aging-us");
  const std::string overload_name = cli.get("overload");
  if (overload_name != "none" && overload_name != "shed" &&
      overload_name != "degrade" && overload_name != "both") {
    std::fprintf(stderr,
                 "unknown --overload '%s' (expected none | shed | degrade | "
                 "both)\n",
                 overload_name.c_str());
    return 1;
  }
  config.scheduler.policy.allow_shed =
      overload_name == "shed" || overload_name == "both";
  config.scheduler.policy.allow_degrade =
      overload_name == "degrade" || overload_name == "both";
  config.scheduler.policy.shed_slack_us = cli.get_double("shed-slack-us");
  config.scheduler.policy.degrade_slack_us = cli.get_double("degrade-slack-us");
  config.degrade_norm = cli.get("degrade-norm");
  if (!core::is_norm_provider_name(config.degrade_norm)) {
    std::fprintf(stderr, "unknown --degrade-norm '%s' (expected %s)\n",
                 config.degrade_norm.c_str(),
                 core::norm_provider_help().c_str());
    return 1;
  }
  config.paced = cli.get_bool("paced");
  config.calibrate = cli.get_bool("calibrate");
  config.stats_json_path = cli.get("stats-json");
  config.calibration.n_samples = 8;
  config.calibration.seq_len = 16;
  config.calibration.position_stride = 4;
  config.calibration.planner.min_gap =
      config.model.norm_layer_count() > 16 ? 8 : 4;

  const auto scenario = serve::try_scenario_from_string(cli.get("scenario"));
  if (!scenario) {
    std::fprintf(stderr,
                 "unknown --scenario '%s' (expected steady | bursty | ramp | "
                 "diurnal | overload)\n",
                 cli.get("scenario").c_str());
    return 1;
  }
  const auto length_model = serve::try_length_model_from_string(cli.get("length"));
  if (!length_model) {
    std::fprintf(stderr, "unknown --length '%s' (expected fixed | uniform | bimodal)\n",
                 cli.get("length").c_str());
    return 1;
  }
  const auto decode_model = serve::try_decode_model_from_string(cli.get("decode"));
  if (!decode_model) {
    std::fprintf(stderr,
                 "unknown --decode '%s' (expected none | fixed | geometric)\n",
                 cli.get("decode").c_str());
    return 1;
  }

  workload_config.rate_rps = cli.get_double("rate");
  workload_config.scenario = *scenario;
  workload_config.burst_factor = cli.get_double("burst-factor");
  workload_config.overload_factor = cli.get_double("overload-factor");
  workload_config.length_model = *length_model;
  if (!serve::prompts_fit(workload_config, config.model.max_seq_len)) {
    std::fprintf(stderr,
                 "--min-prompt/--max-prompt %zu/%zu exceed the model's "
                 "max_seq_len %zu\n",
                 workload_config.min_prompt, workload_config.max_prompt,
                 config.model.max_seq_len);
    return 1;
  }
  workload_config.vocab_size = config.model.vocab_size;
  workload_config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  workload_config.decode_model = *decode_model;
  workload_config.tenant_rate_rps = cli.get_double("tenant-rate");
  workload_config.deadline_us = cli.get_double("deadline-us");

  serve::Server server(config);
  std::printf(
      "=== serve_throughput — %s, norm=%s, %zu workers x %zu norm threads, "
      "%s traffic, decode=%s, %s kernels ===\n",
      config.model.name.c_str(), config.norm.c_str(), config.workers,
      server.config().norm_threads,
      serve::to_string(workload_config.scenario).c_str(),
      serve::to_string(workload_config.decode_model).c_str(),
      kernels::active_name());
  if (config.norm != "exact") {
    std::printf("skip plan : %s\n", server.plan().to_string().c_str());
  }
  std::printf("topology  : %s%s\n", mem::topology().describe().c_str(),
              mem::topology().discovered() ? "" : " (sysfs fallback)");

  const auto workload = serve::generate_workload(workload_config);

  // Trace only the serve run itself — calibration (already done) and the
  // verification pass below stay out of the exported trace.
  const std::string trace_out = cli.get("trace-out");
  if (!trace_out.empty()) {
    obs::tracer().set_ring_capacity(1 << 18);
    obs::tracer().reset();
    obs::tracer().set_enabled(true);
  }
  RunCost run_cost;
  const auto report = run_costed(server, workload, run_cost);
  obs::tracer().set_enabled(false);
  std::printf("%s", report.metrics.to_string().c_str());
  std::printf("run cost         : %s\n", run_cost.to_string().c_str());

  bool trace_ok = true;
  TraceCheck trace_check;
  if (!trace_out.empty()) {
    const std::string trace_json = obs::tracer().export_chrome_json();
    const obs::Tracer::Stats stats = obs::tracer().stats();
    if (!common::write_file(trace_out, trace_json)) {
      std::fprintf(stderr, "failed to write %s\n", trace_out.c_str());
      return 1;
    }
    const bool one_pack_per_request =
        workload_config.decode_model == serve::DecodeModel::kNone &&
        config.prefill_chunk == 0;
    trace_check =
        check_trace(trace_json, report, one_pack_per_request, stats.dropped);
    trace_ok = trace_check.ok();
    std::printf(
        "trace            : %s -> %zu events on %zu threads (%llu dropped)\n",
        trace_out.c_str(), trace_check.events, stats.threads,
        static_cast<unsigned long long>(stats.dropped));
    std::printf(
        "trace check      : %s (balanced %s, flows %s; forward spans %.1f ms "
        "vs pack compute %.1f ms; norm spans %.1f ms = %.1f%% of forward)\n",
        trace_ok ? "PASS" : "FAIL", trace_check.balanced ? "yes" : "NO",
        trace_check.flows_ok ? "yes" : "NO", trace_check.forward_span_us / 1e3,
        trace_check.compute_total_us / 1e3, trace_check.norm_span_us / 1e3,
        trace_check.forward_span_us > 0.0
            ? 100.0 * trace_check.norm_span_us / trace_check.forward_span_us
            : 0.0);
    obs::tracer().reset();
  }

  bool verified = true;
  const bool verify = cli.get_bool("verify");
  const bool has_decode =
      workload_config.decode_model != serve::DecodeModel::kNone;
  if (verify) {
    const auto reference = server.run_reference(workload);
    // Shed requests never ran a forward (checksum 0, no oracle); degraded
    // ones ran on the degrade provider, so they get their own reference,
    // built lazily on first use (same model, same preset skip plan).
    std::optional<serve::ServeReport> degrade_reference;
    std::size_t mismatches = 0, shed_skipped = 0, degraded_checked = 0;
    for (std::size_t i = 0; i < report.results.size(); ++i) {
      const serve::RequestResult& result = report.results[i];
      if (result.shed) {
        ++shed_skipped;
        continue;
      }
      const serve::ServeReport* oracle = &reference;
      if (result.degraded) {
        if (!degrade_reference) {
          serve::ServerConfig degrade_config = config;
          degrade_config.norm = config.degrade_norm;
          degrade_config.calibrate = false;
          degrade_config.preset_plan = server.plan();
          degrade_config.stats_interval_ms = 0;
          serve::Server degrade_server(degrade_config);
          degrade_reference = degrade_server.run_reference(workload);
        }
        oracle = &*degrade_reference;
        ++degraded_checked;
      }
      if (result.hidden_checksum != oracle->results[i].hidden_checksum ||
          result.generated != oracle->results[i].generated) {
        ++mismatches;
      }
    }
    // Per-row counter parity only holds for prefill-only workloads where
    // every request ran on the primary provider: the re-forward oracle feeds
    // each prompt row once per generated token (incremental execution feeds
    // every row exactly once), and shed/degraded traffic never reaches the
    // reference's provider at all.
    const bool sla_outcomes = shed_skipped > 0 || degraded_checked > 0;
    const bool counters_match =
        has_decode || sla_outcomes ||
        (report.metrics.norm.norm_calls == reference.metrics.norm.norm_calls &&
         report.metrics.norm.isd_computed ==
             reference.metrics.norm.isd_computed &&
         report.metrics.norm.isd_predicted ==
             reference.metrics.norm.isd_predicted &&
         report.metrics.norm.elements_read ==
             reference.metrics.norm.elements_read &&
         report.metrics.norm.fused_residual_norms ==
             reference.metrics.norm.fused_residual_norms);
    verified = mismatches == 0 && counters_match;
    std::printf(
        "verify           : %s (%zu/%zu hidden-state checksums + token "
        "streams match, %zu shed skipped, %zu degraded vs %s reference, "
        "counters %s)\n",
        verified ? "bit-identical to single-threaded reference" : "MISMATCH",
        report.results.size() - shed_skipped - mismatches,
        report.results.size() - shed_skipped, shed_skipped, degraded_checked,
        config.degrade_norm.c_str(),
        has_decode || sla_outcomes
            ? "n/a"
            : (counters_match ? "identical" : "DIFFER"));
  }

  // --- p99 latency gate ---------------------------------------------------
  const double max_p99_us = cli.get_double("max-p99-us");
  bool p99_ok = true;
  if (max_p99_us > 0.0) {
    p99_ok = report.metrics.total.p99_us <= max_p99_us;
    std::printf(
        "p99 gate         : %s (total p99 %.1f us, <= %.1f us required)\n",
        p99_ok ? "PASS" : "FAIL", report.metrics.total.p99_us, max_p99_us);
  }

  // --- Scheduling-policy sweep -------------------------------------------
  const double load_factor = cli.get_double("load-factor");
  const double min_occupancy_gain = cli.get_double("min-occupancy-gain");
  const double max_p99_ratio = cli.get_double("max-p99-ratio");
  const double overload_max_p99_us = cli.get_double("overload-max-p99-us");
  const bool policy_sweep = cli.get_bool("policy-sweep") ||
                            min_occupancy_gain > 0.0 || max_p99_ratio > 0.0 ||
                            overload_max_p99_us > 0.0;
  std::vector<PolicyCell> policy_cells;
  PolicyCell overload_cell;
  PolicyCell fifo_overload_cell;
  bool policy_gate_ok = true;
  double capacity_rps = 0.0, offered_rps = 0.0;
  double occupancy_gain = 0.0, p99_ratio = 0.0;
  if (policy_sweep) {
    // Ragged bimodal mix under a row budget: the shape where formation order
    // matters. FIFO closes a batch at the first arrival that overflows the
    // remaining row budget (ragged-tail waste); binned/EDF anchor on the
    // oldest pending request and fill whole batches from its length bin.
    // Short and long prompts land in different bins (bin_width between them),
    // and the budget divides both lengths exactly so bin-pure batches carry
    // zero tail waste.
    serve::WorkloadConfig sweep_workload;
    sweep_workload.n_requests = sweep_requests;
    sweep_workload.length_model = serve::LengthModel::kBimodal;
    sweep_workload.min_prompt = 4;
    sweep_workload.max_prompt = 16;
    sweep_workload.long_fraction = 0.5;
    sweep_workload.priority_levels = 2;
    sweep_workload.vocab_size = config.model.vocab_size;
    sweep_workload.seed = workload_config.seed;

    serve::ServerConfig sweep_config = config;
    // One calibration for every cell (the plan depends only on the model),
    // whole-prompt steps, and a row budget both prompt lengths divide
    // exactly.
    sweep_config.calibrate = false;
    sweep_config.preset_plan = server.plan();
    sweep_config.prefill_chunk = 0;
    sweep_config.stats_interval_ms = 0;
    sweep_config.scheduler.max_batch = 16;
    sweep_config.scheduler.max_rows = 32;
    sweep_config.scheduler.policy = serve::PolicyConfig{};
    sweep_config.scheduler.policy.policy = serve::SchedPolicy::kFifo;
    sweep_config.scheduler.policy.bin_width = 16;

    // Calibrate the offered load off closed-loop FIFO capacity, then replay
    // the SAME arrivals paced at load_factor x capacity under each policy —
    // equal offered load, only the formation order differs. A single
    // closed-loop run is noisy on a shared host, so take the median of three.
    {
      const auto closed_loop = serve::generate_workload(sweep_workload);
      std::vector<double> capacities;
      for (int run = 0; run < 3; ++run) {
        capacities.push_back(
            closed_loop_metrics(sweep_config, closed_loop).throughput_rps);
      }
      std::sort(capacities.begin(), capacities.end());
      capacity_rps = capacities[1];
    }
    offered_rps = load_factor * capacity_rps;
    sweep_workload.rate_rps = offered_rps > 0.0 ? offered_rps : 1.0;
    const auto sweep_requests_paced = serve::generate_workload(sweep_workload);

    // One oracle serves every cell: checksums depend only on token contents,
    // which the forked workload streams keep identical across rates and
    // scenarios of a seed.
    serve::Server sweep_server(sweep_config);
    const serve::ServeReport sweep_oracle =
        sweep_server.run_reference(sweep_requests_paced);

    std::printf(
        "\n=== scheduling-policy sweep (paced, %zu requests, offered %.1f "
        "req/s = %.2f x %.1f req/s FIFO capacity) ===\n",
        sweep_requests, offered_rps, load_factor, capacity_rps);
    std::printf("%8s %9s %10s %10s %12s %10s %6s %9s\n", "policy", "req/s",
                "p50", "p99", "high-pri p99", "occupancy", "shed", "verified");
    const serve::SchedPolicy policies[] = {serve::SchedPolicy::kFifo,
                                           serve::SchedPolicy::kBinned,
                                           serve::SchedPolicy::kEdf};
    for (const serve::SchedPolicy policy : policies) {
      serve::ServerConfig cell_config = sweep_config;
      cell_config.scheduler.policy.policy = policy;
      const PolicyCell cell =
          run_policy_cell(cell_config, sweep_requests_paced, sweep_oracle);
      policy_cells.push_back(cell);
      policy_gate_ok = policy_gate_ok && cell.verified;
      std::printf("%8s %9.1f %8.1fus %8.1fus %10.1fus %10.3f %6zu %9s\n",
                  cell.policy.c_str(), cell.rps, cell.p50_us, cell.p99_us,
                  cell.high_priority_p99_us(), cell.occupancy, cell.shed,
                  cell.verified ? "yes" : "MISMATCH");
    }
    const PolicyCell& fifo = policy_cells[0];
    const PolicyCell& binned = policy_cells[1];
    const PolicyCell& edf = policy_cells[2];
    occupancy_gain =
        fifo.occupancy > 0.0
            ? std::max(binned.occupancy, edf.occupancy) / fifo.occupancy
            : 0.0;
    std::printf("binned/edf vs fifo: occupancy gain %.3fx\n", occupancy_gain);
    if (min_occupancy_gain > 0.0) {
      const bool ok = occupancy_gain >= min_occupancy_gain;
      policy_gate_ok = policy_gate_ok && ok;
      std::printf("occupancy gate   : %s (%.3fx, >= %.3fx required)\n",
                  ok ? "PASS" : "FAIL", occupancy_gain, min_occupancy_gain);
    }

    // Saturating-overload pair: the spike arrives at overload_factor x the
    // calibrated capacity and every request carries a deadline. FIFO (no
    // admission control) rides the full backlog; EDF + shedding must keep
    // the high-priority class served (low-priority traffic absorbs the
    // shedding). Both see IDENTICAL arrivals, so the high-priority p99 ratio
    // is the SLA scheduler's latency cut at equal offered load — and unlike
    // the trickle-load cells above it is structural (the spike backlog is
    // deep by construction), so it is stable enough to gate on.
    serve::WorkloadConfig overload_workload = sweep_workload;
    overload_workload.scenario = serve::Scenario::kOverload;
    overload_workload.overload_factor = cli.get_double("overload-factor");
    overload_workload.rate_rps = capacity_rps > 0.0 ? capacity_rps : 1.0;
    const double sweep_deadline_us = cli.get_double("deadline-us") > 0.0
                                         ? cli.get_double("deadline-us")
                                         : 20000.0;
    overload_workload.deadline_us = sweep_deadline_us;
    const auto overload_requests = serve::generate_workload(overload_workload);

    serve::ServerConfig fifo_overload_config = sweep_config;
    fifo_overload_config.scheduler.policy.policy = serve::SchedPolicy::kFifo;
    fifo_overload_cell =
        run_policy_cell(fifo_overload_config, overload_requests, sweep_oracle);
    const PolicyCell& fifo_overload = fifo_overload_cell;
    policy_gate_ok = policy_gate_ok && fifo_overload.verified;

    serve::ServerConfig overload_config = sweep_config;
    overload_config.scheduler.policy.policy = serve::SchedPolicy::kEdf;
    overload_config.scheduler.policy.allow_shed = true;
    overload_config.scheduler.policy.shed_slack_us = 0.0;
    overload_cell =
        run_policy_cell(overload_config, overload_requests, sweep_oracle);

    const auto high = overload_cell.metrics.per_priority.find(1);
    const auto low = overload_cell.metrics.per_priority.find(0);
    const std::size_t shed_high =
        high != overload_cell.metrics.per_priority.end() ? high->second.shed : 0;
    const std::size_t shed_low =
        low != overload_cell.metrics.per_priority.end() ? low->second.shed : 0;
    const double high_p99_us = overload_cell.high_priority_p99_us();
    p99_ratio = fifo_overload.high_priority_p99_us() > 0.0
                    ? high_p99_us / fifo_overload.high_priority_p99_us()
                    : 0.0;
    // Structural gates: the spike must actually force shedding, EDF must not
    // shed MORE high-priority than low-priority traffic, and every served
    // result must still match the oracle bit-for-bit.
    const bool overload_ok =
        overload_cell.verified && overload_cell.shed > 0 && shed_high <= shed_low;
    policy_gate_ok = policy_gate_ok && overload_ok;
    std::printf(
        "overload pair    : %s (spike %.1fx over %.1f req/s, deadline %.0fus; "
        "fifo high-pri p99 %.1fus -> edf+shed %.1fus, ratio %.3fx; %zu shed "
        "[high %zu / low %zu], %zu served, %s)\n",
        overload_ok ? "PASS" : "FAIL", overload_workload.overload_factor,
        overload_workload.rate_rps, sweep_deadline_us,
        fifo_overload.high_priority_p99_us(), high_p99_us, p99_ratio,
        overload_cell.shed, shed_high, shed_low,
        overload_cell.metrics.completed,
        overload_cell.verified && fifo_overload.verified ? "verified"
                                                         : "MISMATCH");
    if (max_p99_ratio > 0.0) {
      const bool ok = p99_ratio > 0.0 && p99_ratio <= max_p99_ratio;
      policy_gate_ok = policy_gate_ok && ok;
      std::printf(
          "p99-ratio gate   : %s (edf+shed / fifo high-priority p99 %.3fx, "
          "<= %.3fx required)\n",
          ok ? "PASS" : "FAIL", p99_ratio, max_p99_ratio);
    }
    if (overload_max_p99_us > 0.0) {
      const bool ok = high_p99_us > 0.0 && high_p99_us <= overload_max_p99_us;
      policy_gate_ok = policy_gate_ok && ok;
      std::printf(
          "overload p99 gate: %s (high-priority p99 %.1f us, <= %.1f us "
          "required)\n",
          ok ? "PASS" : "FAIL", high_p99_us, overload_max_p99_us);
    }
  }

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    common::Json::Object doc;
    doc["bench"] = "serve_throughput";
    common::Json::Object cfg;
    cfg["model"] = config.model.name;
    cfg["d_model"] = config.model.d_model;
    cfg["norm"] = config.norm;
    cfg["workers"] = config.workers;
    cfg["requests"] = workload_config.n_requests;
    cfg["scenario"] = serve::to_string(workload_config.scenario);
    cfg["rate_rps"] = workload_config.rate_rps;
    cfg["length_model"] = serve::to_string(workload_config.length_model);
    cfg["min_prompt"] = workload_config.min_prompt;
    cfg["max_prompt"] = workload_config.max_prompt;
    cfg["max_batch"] = config.scheduler.max_batch;
    cfg["max_wait_us"] =
        static_cast<std::size_t>(config.scheduler.max_wait.count());
    cfg["max_rows"] = config.scheduler.max_rows;
    cfg["policy"] = serve::to_string(config.scheduler.policy.policy);
    cfg["bin_width"] = config.scheduler.policy.bin_width;
    cfg["aging_us"] = config.scheduler.policy.aging_us;
    cfg["overload"] = overload_name;
    cfg["shed_slack_us"] = config.scheduler.policy.shed_slack_us;
    cfg["degrade_slack_us"] = config.scheduler.policy.degrade_slack_us;
    cfg["degrade_norm"] = config.degrade_norm;
    cfg["deadline_us"] = workload_config.deadline_us;
    cfg["priority_levels"] = workload_config.priority_levels;
    cfg["tenants"] = workload_config.tenants;
    cfg["tenant_rate_rps"] = workload_config.tenant_rate_rps;
    cfg["queue_capacity"] = config.queue_capacity;
    cfg["paced"] = config.paced;
    cfg["prefill_chunk"] = config.prefill_chunk;
    cfg["decode_model"] = serve::to_string(workload_config.decode_model);
    cfg["decode_tokens"] = workload_config.decode_tokens;
    cfg["max_decode"] = workload_config.max_decode;
    cfg["norm_threads"] = server.config().norm_threads;
    cfg["numa_nodes"] = mem::topology().nodes();
    cfg["topology"] = mem::topology().describe();
    cfg["seed"] = static_cast<std::size_t>(workload_config.seed);
    cfg["skip_plan"] = server.plan().to_string();
    cfg["kernel"] = kernels::active_name();
    doc["config"] = cfg;
    doc["metrics"] = report.metrics.to_json();
    doc["run_cost"] = run_cost.to_json();
    common::Json::Object ver;
    ver["checked"] = verify;
    ver["bit_identical"] = verified;
    doc["verify"] = ver;
    if (max_p99_us > 0.0) {
      common::Json::Object gate;
      gate["p99_us"] = report.metrics.total.p99_us;
      gate["max_p99_us"] = max_p99_us;
      gate["ok"] = p99_ok;
      doc["p99_gate"] = gate;
    }
    if (policy_sweep) {
      common::Json::Array sweep;
      for (const PolicyCell& cell : policy_cells) sweep.push_back(cell.to_json());
      common::Json::Object pol;
      pol["cells"] = sweep;
      pol["capacity_rps"] = capacity_rps;
      pol["offered_rps"] = offered_rps;
      pol["load_factor"] = load_factor;
      pol["occupancy_gain"] = occupancy_gain;
      pol["p99_ratio"] = p99_ratio;
      pol["min_occupancy_gain"] = min_occupancy_gain;
      pol["max_p99_ratio"] = max_p99_ratio;
      common::Json::Object over = overload_cell.to_json().as_object();
      over["completed"] = overload_cell.metrics.completed;
      common::Json::Object classes;
      for (const auto& [priority, slice] : overload_cell.metrics.per_priority) {
        classes[std::to_string(priority)] = slice.to_json();
      }
      over["per_priority"] = classes;
      over["fifo_baseline"] = fifo_overload_cell.to_json();
      over["max_high_priority_p99_us"] = overload_max_p99_us;
      pol["overload"] = over;
      pol["gate_ok"] = policy_gate_ok;
      doc["policy_sweep"] = pol;
    }
    if (!trace_out.empty()) {
      common::Json::Object trace;
      trace["path"] = trace_out;
      trace["events"] = trace_check.events;
      trace["dropped"] = static_cast<std::size_t>(trace_check.dropped);
      trace["balanced"] = trace_check.balanced;
      trace["flows_ok"] = trace_check.flows_ok;
      trace["forward_span_us"] = trace_check.forward_span_us;
      trace["compute_total_us"] = trace_check.compute_total_us;
      trace["norm_span_us"] = trace_check.norm_span_us;
      trace["ok"] = trace_ok;
      doc["trace"] = trace;
    }
    if (!common::write_file(json_path, common::Json(doc).dump_pretty() + "\n")) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json report      : %s\n", json_path.c_str());
  }
  return verified && policy_gate_ok && p99_ok && trace_ok ? 0 : 1;
}
