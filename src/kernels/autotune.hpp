// Static-dispatch surface under the names of the former startup norm
// autotuner. Every row width gets kernels::active(), the one table chosen per
// process by CPUID (or HAAN_FORCE_SCALAR=1); nothing is measured. Code under
// src/ calls active() directly; these names remain only for the benchmark
// harness in perfbench/ and go once it calls active() itself.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <vector>

#include "kernels/kernels.hpp"

namespace haan::kernels {

/// A per-tile measurement of the former tuner; none are produced.
struct AutotuneTile {
  std::size_t rows = 0;
  double static_ns_per_row = 0.0;
  double tuned_ns_per_row = 0.0;
};

/// The kernel table for one row width d.
struct AutotuneChoice {
  enum class Source { kStatic };

  const KernelTable* table = nullptr;  ///< Always &active().
  std::size_t d = 0;
  std::size_t rows_tile = 0;        ///< Always 0.
  Source source = Source::kStatic;
  std::vector<AutotuneTile> tiles;  ///< Always empty.
};

inline const char* to_string(AutotuneChoice::Source) { return "static"; }

/// The choice for width d; the reference stays valid for the process.
inline const AutotuneChoice& tuned_for(std::size_t d) {
  static std::mutex mutex;
  static std::map<std::size_t, AutotuneChoice> choices;
  const std::lock_guard<std::mutex> lock(mutex);
  const auto [it, inserted] = choices.try_emplace(d);
  if (inserted) {
    it->second.table = &active();
    it->second.d = d;
  }
  return it->second;
}

inline const KernelTable& tuned_table(std::size_t d) {
  return *tuned_for(d).table;
}

/// A no-op: there is no decision to forget.
inline void reset_autotune_for_testing() {}

}  // namespace haan::kernels
