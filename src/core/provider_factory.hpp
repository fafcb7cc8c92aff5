// Shared NormProvider factory: maps a `--norm=<name>` string to a constructed
// provider so the serving runtime, benches and examples all select
// normalization backends the same way. "haan" resolves to the paper's §V-A
// per-model algorithm configuration (subsample fraction + operand format) for
// the model named in the options; explicit variants pin a configuration
// regardless of model.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/haan_norm.hpp"
#include "model/norm_provider.hpp"

namespace haan::core {

/// Construction context shared by every provider the factory can build.
struct ProviderOptions {
  /// Model embedding width; required by the haan* variants (sizes Nsub).
  std::size_t width = 0;

  /// Variance epsilon for all providers.
  double eps = 1e-5;

  /// Skip plan attached to haan* variants (default-constructed = disabled).
  SkipPlan plan;

  /// Model name ("llama7b*", "opt*", "gpt2*"); selects the paper per-model
  /// configuration for the plain "haan" variant. Unknown/empty names fall
  /// back to the OPT-style config (Nsub = width/2, FP16).
  std::string model_name;

  /// Worker-local RowPartitionPool size for the row-block entry points
  /// (0 = model::threads_per_worker(1), 1 = fully serial). Outputs are
  /// bit-identical for any value. A Server passes its resolved count; the
  /// serving benchmark (perfbench/) sets it directly.
  std::size_t norm_threads = 0;
};

/// Registered provider names, in help order.
std::vector<std::string> norm_provider_names();

/// True if `name` is a registered provider name.
bool is_norm_provider_name(const std::string& name);

/// "exact | haan | ..." — for --help strings.
std::string norm_provider_help();

/// Builds the provider named `name`. Returns nullptr for unknown names so CLI
/// drivers can report the error; haan* variants require options.width > 0.
std::unique_ptr<model::NormProvider> make_norm_provider(
    const std::string& name, const ProviderOptions& options);

/// The HaanConfig the factory would attach to `name` (haan* variants only;
/// aborts otherwise). Exposed so benches can print the resolved settings.
HaanConfig resolve_haan_config(const std::string& name,
                               const ProviderOptions& options);

/// Counters hook: the HAAN execution counters when `provider` is a
/// HaanNormProvider, nullptr otherwise (e.g. exact).
const HaanNormProvider* as_haan_provider(const model::NormProvider* provider);

}  // namespace haan::core
