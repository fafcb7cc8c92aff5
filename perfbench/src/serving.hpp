// The untraced half of the benchmark: server set-up, the timed serving
// window, the correctness and quality passes (both outside the timed
// window), and the end-to-end metrics computed from their results.
#pragma once

#include <memory>
#include <set>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// One call of Server::run and what it was given.
struct ServedRun {
  std::vector<serve::Request> requests;
  std::vector<std::uint64_t> probe_ids;  ///< probes placed in this run
  serve::ServeReport report;
  double wall_s = 0.0;  ///< wall time of the Server::run call
};

/// Requests one Server::run call of this workload carries (sizes the queue
/// so the feeder never blocks).
std::size_t requests_per_run(const Workload& workload, double seconds);

/// Constructs the server `repeats` times, each from a cold autotuner, and
/// keeps the last one (none when `repeats` is 0). `samples` receives each
/// construction's seconds.
std::unique_ptr<serve::Server> set_up_server(const Workload& workload,
                                             double seconds, int repeats,
                                             std::vector<double>& samples);

/// A short unmeasured run so first-touch page faults and lazy thread start
/// are paid before timing.
void warm_up(serve::Server& server, const Workload& workload, std::uint64_t seed);

/// The timed window: one paced run whose arrivals span `seconds` (open loop)
/// or unpaced iterations while the next one is expected to end within
/// `seconds` (closed loop, at least one). The first run carries the probes.
std::vector<ServedRun> serve_window(serve::Server& server, const Workload& workload,
                                    std::uint64_t seed, double seconds);

/// Outcome of the correctness and quality passes.
struct CheckResult {
  std::size_t offered = 0;
  std::size_t unserved = 0;    ///< no result came back
  std::size_t shed = 0;        ///< completed unserved by admission control
  std::size_t sampled = 0;     ///< probes re-executed by the oracle
  std::set<std::uint64_t> mismatched;  ///< probe ids differing from the oracle
  std::size_t quality_rows = 0;
  double quality_rel_err = 0.0;      ///< mean per-row relative L2 error
  double quality_token_match = 0.0;  ///< teacher-forced argmax agreement

  std::size_t failed() const { return unserved + shed + mismatched.size(); }
};

/// Checks every run: all offered requests came back served; every probe
/// matches Server::run_reference bit for bit (checksum and generated tokens);
/// the probes' fed rows are re-run with the HAAN provider and the exact
/// provider for the quality figures. Uses up to `threads` threads.
CheckResult check_runs(serve::Server& server, const Workload& workload,
                       const std::vector<ServedRun>& runs, std::size_t threads);

/// Every served request of `b` must carry the same checksum and tokens as the
/// same request of `a` (two runs over identical inputs). Returns mismatches.
std::size_t compare_runs(const std::vector<ServedRun>& a,
                         const std::vector<ServedRun>& b);

/// Peak resident set of this process so far, MB.
double peak_rss_mb();

/// The end-to-end metrics of one window, in BENCHMARK.json order. Latency,
/// throughput and SLO figures are medians over the window's runs.
std::vector<Metric> end_to_end_metrics(const Workload& workload,
                                       const std::vector<ServedRun>& runs,
                                       double setup_s, double rss_mb,
                                       const CheckResult& check);

}  // namespace perfbench
