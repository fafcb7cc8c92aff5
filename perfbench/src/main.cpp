// perfbench: the serving benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
// the same window untraced, replays it traced, and reports the per-layer
// metrics. Both check correctness outside the timed window. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// The exit code is non-zero when any request failed or an output differed.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "kernels/autotune.hpp"
#include "kernels/kernels.hpp"
#include "layers.hpp"
#include "mem/topology.hpp"
#include "serving.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Server constructions per untraced run, half before the timed window and
/// half after the checks, so they sample the host's speed across the whole
/// run; setup_s is their median.
constexpr int kSetupRepeats = 6;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke]\nworkloads:",
               why);
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0) || options.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  if (find_workload(options.workload) == nullptr) usage("unknown workload");
  return options;
}

/// Unsets every inherited HAAN_* variable so the program runs exactly the
/// configuration below; returns the names removed.
std::vector<std::string> scrub_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const char* eq = std::strchr(*entry, '=');
    const std::string name =
        eq ? std::string(*entry, static_cast<std::size_t>(eq - *entry)) : std::string(*entry);
    if (name.rfind("HAAN_", 0) == 0) names.push_back(name);
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

void print_config(const Workload& w, const serve::ServerConfig& config, std::size_t nproc,
                  const std::vector<std::string>& scrubbed, const Options& options) {
  std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d%s\n", w.name.c_str(),
              static_cast<unsigned long long>(options.seed), number(options.seconds).c_str(),
              options.trace ? 1 : 0, options.smoke ? " (smoke)" : "");
  std::printf("env       : unset inherited HAAN_* variables: %s\n",
              scrubbed.empty() ? "(none set)" : "");
  for (const std::string& name : scrubbed) std::printf("            %s\n", name.c_str());
  std::printf("host      : nproc=%zu topology=%s\n", nproc,
              mem::topology().describe().c_str());
  std::printf("model     : %s d=%zu blocks=%zu heads=%zu d_ff=%zu norm=%s\n",
              config.model.name.c_str(), config.model.d_model, config.model.n_blocks,
              config.model.n_heads, config.model.d_ff,
              config.model.norm_kind == model::NormKind::kRMSNorm ? "rmsnorm" : "layernorm");
  std::printf("server    : norm=%s workers=%zu norm_threads=%zu (compute threads %zu <= "
              "nproc %zu: %s) mode=%s prefill_chunk=%zu numa=%s policy=%s "
              "queue_capacity=%zu max_batch=%zu max_rows=%zu max_wait_us=%lld paced=%d\n",
              config.norm.c_str(), config.workers, config.norm_threads,
              config.workers * config.norm_threads, nproc,
              config.workers * config.norm_threads <= nproc ? "yes" : "NO",
              serve::to_string(config.mode).c_str(), config.prefill_chunk,
              config.numa.c_str(), serve::to_string(config.scheduler.policy.policy).c_str(),
              config.queue_capacity, config.scheduler.max_batch,
              config.scheduler.max_rows, static_cast<long long>(config.scheduler.max_wait.count()),
              config.paced ? 1 : 0);
  if (w.closed_loop) {
    std::printf("traffic   : closed loop, %zu requests queued at t=0 per iteration\n",
                w.requests_per_iteration);
  } else {
    std::printf("traffic   : open loop Poisson at %s req/s\n",
                number(w.traffic.rate_rps).c_str());
  }
  std::printf("            prompts %zu-%zu uniform; decode %s mean %zu cap %zu; SLO ttft<=%sms "
              "tpot<=%sms\n",
              w.traffic.min_prompt, w.traffic.max_prompt,
              serve::to_string(w.traffic.decode_model).c_str(), w.traffic.decode_tokens,
              w.traffic.max_decode, number(w.slo_ttft_ms).c_str(),
              number(w.slo_tpot_ms).c_str());
}

void print_kernel_table(const Workload& w) {
  const kernels::AutotuneChoice& choice = kernels::tuned_for(w.model.d_model);
  std::printf("kernels   : dispatch=%s autotuned=%s (source %s, rows_tile %zu, d=%zu)\n",
              kernels::active_name(), choice.table->name, kernels::to_string(choice.source),
              choice.rows_tile, choice.d);
  for (const kernels::AutotuneTile& tile : choice.tiles) {
    std::printf("            rows=%zu static %.1f ns/row tuned %.1f ns/row\n", tile.rows,
                tile.static_ns_per_row, tile.tuned_ns_per_row);
  }
}

void print_check(const CheckResult& check, std::size_t replay_mismatches) {
  std::printf("check     : offered %zu, unserved %zu, shed %zu; sampled %zu vs "
              "run_reference, %zu mismatched\n",
              check.offered, check.unserved, check.shed, check.sampled,
              check.mismatched.size());
  if (replay_mismatches > 0) {
    std::printf("check     : traced replay differs from the untraced run on %zu requests\n",
                replay_mismatches);
  }
  std::printf("quality   : HAAN vs exact over %zu fed rows: rel err %.4f, token match %.4f\n",
              check.quality_rows, check.quality_rel_err, check.quality_token_match);
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int run(const Options& options) {
  const std::vector<std::string> scrubbed = scrub_environment();
  Workload workload = *find_workload(options.workload);
  if (options.smoke) workload = smoke_version(workload);
  const std::size_t nproc =
      std::max<std::size_t>(1, static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN)));

  // setup_s is an end-to-end metric; the traced run times set-up by part,
  // before the server is built, so the window and the per-layer timings
  // share the kernel table tuned by the server's own construction.
  SetupParts parts;
  if (options.trace) parts = time_setup_parts(workload);
  const int repeats = options.smoke || options.trace ? 1 : kSetupRepeats;
  std::vector<double> setup_samples;
  std::unique_ptr<serve::Server> server =
      set_up_server(workload, options.seconds, (repeats + 1) / 2, setup_samples);
  print_config(workload, server->config(), nproc, scrubbed, options);
  print_kernel_table(workload);

  warm_up(*server, workload, options.seed);
  const std::vector<ServedRun> runs =
      serve_window(*server, workload, options.seed, options.seconds);
  const double rss_mb = peak_rss_mb();
  double window_s = 0.0;
  for (const ServedRun& r : runs) window_s += r.wall_s;
  std::printf("window    : %zu Server::run call(s), %.3f s served\n", runs.size(), window_s);

  std::vector<Metric> metrics;
  std::size_t replay_mismatches = 0;
  if (options.trace) {
    std::string trace_json;
    const std::vector<ServedRun> traced = traced_replay(*server, runs, trace_json);
    replay_mismatches = compare_runs(runs, traced);
    metrics = layer_metrics(workload, *server, runs, traced, trace_json, parts);
  }
  const CheckResult check = check_runs(*server, workload, runs, server->config().workers);
  print_check(check, replay_mismatches);
  if (!options.trace) {
    (void)set_up_server(workload, options.seconds, repeats / 2, setup_samples);
    const double setup_s = common::median_of(setup_samples);
    std::printf("setup     : %zu constructions, median %.4f s (", setup_samples.size(),
                setup_s);
    for (double s : setup_samples) std::printf(" %.4f", s);
    std::printf(" )\n");
    metrics = end_to_end_metrics(workload, runs, setup_s, rss_mb, check);
  }

  const std::size_t failed = check.failed() + replay_mismatches;
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  const bool correct = failed == 0 && finite;
  print_result(correct, std::max<std::size_t>(1, check.offered), failed, metrics);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
