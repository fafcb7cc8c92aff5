// The traced half of the benchmark: per-layer metrics from calls the
// benchmark times into the public functions of tensor, kernels, core, model,
// serve and mem, plus the spans the program already emits.
#pragma once

#include <string>
#include <vector>

#include "serving.hpp"

namespace perfbench {

/// Set-up split by component, each timed on its own public entry point.
struct SetupParts {
  double model_s = 0.0;      ///< model::Transformer construction (weights)
  double calibrate_s = 0.0;  ///< core::calibrate_skip_plan (Algorithm 1)
  double autotune_s = 0.0;   ///< first kernels::tuned_for(d) from a cold tuner
};
SetupParts time_setup_parts(const Workload& workload);

/// Replays `untraced` request for request with tracing on and returns the
/// exported Chrome trace of that replay.
std::vector<ServedRun> traced_replay(serve::Server& server,
                                     const std::vector<ServedRun>& untraced,
                                     std::string& trace_json);

/// Every per-layer metric, in BENCHMARK.json order. `untraced` and `traced`
/// serve identical inputs; `trace_json` is the traced replay's export.
/// Prints the Fig. 1(b)-style breakdown table to stdout.
std::vector<Metric> layer_metrics(const Workload& workload, serve::Server& server,
                                  const std::vector<ServedRun>& untraced,
                                  const std::vector<ServedRun>& traced,
                                  const std::string& trace_json,
                                  const SetupParts& setup);

}  // namespace perfbench
