// Shared declarations of the serving benchmark: workload definitions, the
// pinned server configuration, request generation, and the metric record the
// benchmark prints. The benchmark drives haan::serve from outside — it builds a
// Server, times Server::run, reads the ServeReport — and, in its traced run,
// times calls into the public functions of tensor, kernels, core, model,
// serve and mem.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "model/config.hpp"
#include "obs/trace.hpp"
#include "serve/request.hpp"
#include "serve/server.hpp"
#include "serve/workload.hpp"

namespace perfbench {

namespace common = haan::common;
namespace core = haan::core;
namespace kernels = haan::kernels;
namespace mem = haan::mem;
namespace model = haan::model;
namespace obs = haan::obs;
namespace serve = haan::serve;
namespace tensor = haan::tensor;

/// One named measurement. Every value printed in the result line is one of
/// these: its unit travels with it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// A traffic mix plus the exact server configuration it is served with.
struct Workload {
  std::string name;
  model::ModelConfig model;

  /// Closed loop: every request of an iteration is queued at t=0 and the
  /// server runs unpaced; iterations repeat until the measuring time is up.
  /// Open loop: one paced run whose Poisson arrivals (traffic.rate_rps) span
  /// the measuring time.
  bool closed_loop = false;
  std::size_t requests_per_iteration = 0;  ///< closed loop only

  /// Prompt lengths, decode budgets and arrival rate, drawn by the program's
  /// own serve::generate_workload (n_requests, seed and vocab_size are set
  /// per call).
  serve::WorkloadConfig traffic;

  /// Pinned scheduler shape (workers, norm_threads and prefill_chunk are the
  /// same for every workload; server_config fixes them).
  std::size_t max_batch = 8;
  std::chrono::microseconds max_wait{2000};
  std::size_t max_rows = 0;  ///< row budget per pack (0 = none)

  /// SLO limits for slo_attainment, fixed absolute values per workload:
  /// 1.5 x the measured median ttft_p95_ms and 3 x the measured median
  /// tpot_p50_ms (METRICS.md gives the measurement).
  double slo_ttft_ms = 0.0;
  double slo_tpot_ms = 0.0;

  /// Probe requests: a fixed set (same tokens for every seed) placed at
  /// evenly spaced positions of the first run's traffic. After the timed
  /// window they are re-executed through Server::run_reference (bit-identity)
  /// and through the HAAN and exact providers (quality), so the quality
  /// figures are those of one fixed evaluation sample.
  std::size_t probes = 8;
};

/// The workload table, in BENCHMARK.json order.
const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Shrinks a workload for the self-test: same mix and configuration, fewer
/// requests and probes.
Workload smoke_version(const Workload& workload);

/// The one place the server configuration is decided: 4 workers (fewer on a
/// host with fewer processors) x 1 norm thread, whole-prompt prefill steps.
/// queue_capacity covers every request, so the feeder never blocks and TTFT
/// from enqueue equals TTFT from the due time.
serve::ServerConfig server_config(const Workload& workload,
                                  std::size_t n_requests);

/// `n` requests of the workload from serve::generate_workload with `seed`;
/// ids are `first_id` upward. Closed-loop requests all arrive at t=0.
std::vector<serve::Request> generate_requests(const Workload& workload,
                                              std::size_t n, std::uint64_t seed,
                                              std::uint64_t first_id = 0);

/// Overwrites the prompts and decode budgets of evenly spaced requests with
/// the workload's fixed probe set (arrival times and ids stay). Returns the
/// probe ids.
std::vector<std::uint64_t> insert_probes(const Workload& workload,
                                         std::vector<serve::Request>& requests);

/// Nearest-rank quantile of an unsorted sample (0 for an empty sample).
double quantile(std::vector<double> values, double q);

/// Seconds since `start` on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point start);

}  // namespace perfbench
