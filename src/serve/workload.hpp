// Synthetic workload generator: Poisson request arrivals with configurable
// prompt-length distributions and traffic scenarios (steady, bursty, ramp).
// Fully deterministic under a fixed seed — arrivals, lengths and token
// contents draw from independent forked Rng streams, so changing one knob
// does not reshuffle the others.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace haan::serve {

/// Traffic shape over the run.
enum class Scenario {
  kSteady,    ///< constant Poisson rate
  kBursty,    ///< square wave, peak:trough = burst_factor^2, mean = rate_rps
  kRamp,      ///< rate ramps linearly from ramp_start to ramp_end x rate
  kDiurnal,   ///< sinusoidal day/night curve around rate_rps
  kOverload,  ///< saturating spike: overload_factor x rate mid-run
};

/// Prompt-length distribution.
enum class LengthModel {
  kFixed,    ///< every prompt is min_prompt tokens
  kUniform,  ///< uniform in [min_prompt, max_prompt]
  kBimodal,  ///< min_prompt, with probability long_fraction -> max_prompt
};

/// Decode-length (max_new_tokens) distribution.
enum class DecodeModel {
  kNone,       ///< prefill-only: every request has max_new_tokens = 0
  kFixed,      ///< every request decodes decode_tokens tokens
  kGeometric,  ///< geometric on {1, 2, ...} with mean decode_tokens
};

/// Nullopt-returning parsers for CLI validation...
std::optional<Scenario> try_scenario_from_string(const std::string& name);
std::optional<LengthModel> try_length_model_from_string(const std::string& name);
std::optional<DecodeModel> try_decode_model_from_string(const std::string& name);

/// ...and aborting ones for call sites where the name is already trusted.
Scenario scenario_from_string(const std::string& name);
LengthModel length_model_from_string(const std::string& name);
DecodeModel decode_model_from_string(const std::string& name);

std::string to_string(Scenario scenario);
std::string to_string(LengthModel model);
std::string to_string(DecodeModel model);

/// Generator knobs.
struct WorkloadConfig {
  std::size_t n_requests = 1000;

  /// Mean Poisson arrival rate, requests/second.
  double rate_rps = 2000.0;

  Scenario scenario = Scenario::kSteady;

  /// Bursty: the instantaneous rate toggles between a peak and a trough in a
  /// burst_factor^2 ratio every burst_period requests, normalized so the
  /// time-average arrival rate equals rate_rps. Must be >= 1.
  double burst_factor = 4.0;
  std::size_t burst_period = 64;

  /// Ramp: instantaneous rate goes linearly from ramp_start*rate (first
  /// request) to ramp_end*rate (last request).
  double ramp_start = 0.25;
  double ramp_end = 2.0;

  /// Diurnal: rate * (1 + amplitude * sin(2*pi*cycles*t)) over the run, t in
  /// [0, 1], normalized so the empirical mean arrival rate equals rate_rps
  /// over whole cycles. Amplitude must be in [0, 1) (the trough rate stays
  /// positive).
  double diurnal_amplitude = 0.8;
  double diurnal_cycles = 2.0;

  /// Overload: the middle [0.3, 0.7) of the request stream arrives at
  /// overload_factor * rate_rps (a saturating spike between normal phases);
  /// must be >= 1.
  double overload_factor = 4.0;

  LengthModel length_model = LengthModel::kUniform;
  std::size_t min_prompt = 8;
  std::size_t max_prompt = 32;
  double long_fraction = 0.1;  ///< bimodal: probability of a max_prompt prompt

  /// Decode demand. Lengths draw from a fourth forked Rng stream appended
  /// after the existing three, so enabling decode leaves arrivals, prompt
  /// lengths and token contents of a given seed bit-identical to a
  /// prefill-only workload.
  DecodeModel decode_model = DecodeModel::kNone;
  std::size_t decode_tokens = 8;  ///< fixed length / geometric mean (>= 1)
  std::size_t max_decode = 64;    ///< hard per-request cap on sampled lengths

  /// Token ids are uniform in [0, vocab_size).
  std::size_t vocab_size = 512;

  /// SLA mix. Tenants and (single-tenant) priorities draw from a FIFTH
  /// forked Rng stream appended after the decode stream, so enabling any of
  /// these knobs leaves arrivals, prompt lengths, token contents and decode
  /// budgets of a given seed bit-identical to an SLA-free workload.
  ///
  /// tenants > 1 assigns each request a uniform tenant id; with
  /// tenant_rate_rps > 0 each tenant's arrivals are additionally clamped to
  /// that rate by a per-tenant token bucket (the stream is re-sorted by
  /// arrival afterwards and ids reassigned in arrival order, so pacing
  /// honors it like any other trace). The caps shape traffic; they do not
  /// conserve the global mean rate.
  std::size_t tenants = 1;
  double tenant_rate_rps = 0.0;  ///< per-tenant arrival cap (0 = uncapped)

  /// priority_levels > 1 assigns Request.priority in [0, levels): per-tenant
  /// (tenant % levels, a stable class per tenant) under multi-tenancy, else
  /// uniform per request.
  std::size_t priority_levels = 1;

  /// Flat per-request latency budget (0 = no deadlines). Admission control
  /// only ever sheds/degrades requests with a deadline.
  double deadline_us = 0.0;

  std::uint64_t seed = 1;
};

/// Generates the request trace: ids 0..n-1 in arrival order, nondecreasing
/// arrival_us offsets, prompts within [min_prompt, max_prompt].
std::vector<Request> generate_workload(const WorkloadConfig& config);

/// True when every prompt `config` can generate fits a model with
/// `max_seq_len` positions — the check a CLI runs before serving, since the
/// server treats an over-long prompt as a broken invariant.
bool prompts_fit(const WorkloadConfig& config, std::size_t max_seq_len);

}  // namespace haan::serve
