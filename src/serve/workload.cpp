#include "serve/workload.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace haan::serve {

std::optional<Scenario> try_scenario_from_string(const std::string& name) {
  if (name == "steady") return Scenario::kSteady;
  if (name == "bursty") return Scenario::kBursty;
  if (name == "ramp") return Scenario::kRamp;
  if (name == "diurnal") return Scenario::kDiurnal;
  if (name == "overload") return Scenario::kOverload;
  return std::nullopt;
}

Scenario scenario_from_string(const std::string& name) {
  const auto scenario = try_scenario_from_string(name);
  HAAN_EXPECTS(scenario.has_value() &&
               "unknown scenario (expected steady | bursty | ramp | diurnal | "
               "overload)");
  return *scenario;
}

std::string to_string(Scenario scenario) {
  switch (scenario) {
    case Scenario::kSteady: return "steady";
    case Scenario::kBursty: return "bursty";
    case Scenario::kRamp: return "ramp";
    case Scenario::kDiurnal: return "diurnal";
    case Scenario::kOverload: return "overload";
  }
  return "?";
}

std::optional<LengthModel> try_length_model_from_string(const std::string& name) {
  if (name == "fixed") return LengthModel::kFixed;
  if (name == "uniform") return LengthModel::kUniform;
  if (name == "bimodal") return LengthModel::kBimodal;
  return std::nullopt;
}

LengthModel length_model_from_string(const std::string& name) {
  const auto model = try_length_model_from_string(name);
  HAAN_EXPECTS(model.has_value() &&
               "unknown length model (expected fixed | uniform | bimodal)");
  return *model;
}

std::string to_string(LengthModel model) {
  switch (model) {
    case LengthModel::kFixed: return "fixed";
    case LengthModel::kUniform: return "uniform";
    case LengthModel::kBimodal: return "bimodal";
  }
  return "?";
}

std::optional<DecodeModel> try_decode_model_from_string(const std::string& name) {
  if (name == "none") return DecodeModel::kNone;
  if (name == "fixed") return DecodeModel::kFixed;
  if (name == "geometric") return DecodeModel::kGeometric;
  return std::nullopt;
}

DecodeModel decode_model_from_string(const std::string& name) {
  const auto model = try_decode_model_from_string(name);
  HAAN_EXPECTS(model.has_value() &&
               "unknown decode model (expected none | fixed | geometric)");
  return *model;
}

std::string to_string(DecodeModel model) {
  switch (model) {
    case DecodeModel::kNone: return "none";
    case DecodeModel::kFixed: return "fixed";
    case DecodeModel::kGeometric: return "geometric";
  }
  return "?";
}

namespace {

/// Instantaneous Poisson rate for request `i` of `n` under the scenario.
double instant_rate(const WorkloadConfig& config, std::size_t i) {
  switch (config.scenario) {
    case Scenario::kSteady:
      return config.rate_rps;
    case Scenario::kBursty: {
      // Phases alternate every burst_period *requests*, so the time-average
      // arrival rate is the harmonic mean of the two phase rates: the raw
      // rate*f / rate/f square wave has mean inter-arrival (1/f + f)/2 / rate
      // and under-delivers the configured rate by that factor. Scale both
      // phases by it so the mean arrival rate equals rate_rps while the
      // peak:trough ratio stays f^2.
      const double f = config.burst_factor;
      const double balance = 0.5 * (f + 1.0 / f);
      const bool peak = (i / config.burst_period) % 2 == 0;
      return peak ? config.rate_rps * f * balance
                  : config.rate_rps / f * balance;
    }
    case Scenario::kRamp: {
      const double t = config.n_requests <= 1
                           ? 0.0
                           : static_cast<double>(i) /
                                 static_cast<double>(config.n_requests - 1);
      return config.rate_rps *
             (config.ramp_start + (config.ramp_end - config.ramp_start) * t);
    }
    case Scenario::kDiurnal: {
      // Sinusoidal day/night curve. The modulation is indexed by REQUEST, so
      // the realized time-average rate is the harmonic mean of the curve —
      // rate * sqrt(1 - a^2) over whole cycles — not rate itself (the same
      // under-delivery the bursty phases correct for). Scale by the inverse
      // so the empirical mean rate equals rate_rps while the peak:trough
      // ratio stays (1+a):(1-a). Amplitude < 1 keeps the trough positive.
      const double t = config.n_requests <= 1
                           ? 0.0
                           : static_cast<double>(i) /
                                 static_cast<double>(config.n_requests - 1);
      constexpr double kTwoPi = 6.283185307179586;
      const double a = config.diurnal_amplitude;
      const double balance = 1.0 / std::sqrt(1.0 - a * a);
      return config.rate_rps * balance *
             (1.0 + a * std::sin(kTwoPi * config.diurnal_cycles * t));
    }
    case Scenario::kOverload: {
      // Square saturating spike over the middle of the stream: the serving
      // side sees a sustained burst it cannot keep up with, bracketed by
      // normal traffic that shows recovery.
      const double t = config.n_requests <= 1
                           ? 0.0
                           : static_cast<double>(i) /
                                 static_cast<double>(config.n_requests - 1);
      const bool spike = t >= 0.3 && t < 0.7;
      return spike ? config.rate_rps * config.overload_factor : config.rate_rps;
    }
  }
  return config.rate_rps;
}

std::size_t draw_length(const WorkloadConfig& config, common::Rng& rng) {
  switch (config.length_model) {
    case LengthModel::kFixed:
      return config.min_prompt;
    case LengthModel::kUniform:
      return config.min_prompt +
             rng.uniform_index(config.max_prompt - config.min_prompt + 1);
    case LengthModel::kBimodal:
      return rng.uniform() < config.long_fraction ? config.max_prompt
                                                  : config.min_prompt;
  }
  return config.min_prompt;
}

std::size_t draw_decode(const WorkloadConfig& config, common::Rng& rng) {
  switch (config.decode_model) {
    case DecodeModel::kNone:
      return 0;
    case DecodeModel::kFixed:
      return std::min(config.decode_tokens, config.max_decode);
    case DecodeModel::kGeometric: {
      // Geometric on {1, 2, ...} with mean decode_tokens via inversion:
      // n = 1 + floor(log(1-u) / log(1-p)), p = 1/mean.
      const double p = 1.0 / static_cast<double>(config.decode_tokens);
      const double u = rng.uniform();
      const double n = 1.0 + std::floor(std::log1p(-u) / std::log1p(-p));
      return std::min(static_cast<std::size_t>(std::max(n, 1.0)),
                      config.max_decode);
    }
  }
  return 0;
}

}  // namespace

std::vector<Request> generate_workload(const WorkloadConfig& config) {
  HAAN_EXPECTS(config.rate_rps > 0.0);
  HAAN_EXPECTS(config.min_prompt > 0 && config.min_prompt <= config.max_prompt);
  HAAN_EXPECTS(config.vocab_size > 0);
  HAAN_EXPECTS(config.burst_factor >= 1.0 && config.burst_period > 0);
  // A non-positive ramp endpoint would yield an infinite or negative
  // inter-arrival time at some point of the run.
  HAAN_EXPECTS(config.ramp_start > 0.0 && config.ramp_end > 0.0);
  if (config.decode_model != DecodeModel::kNone) {
    HAAN_EXPECTS(config.decode_tokens >= 1 && config.max_decode >= 1);
  }
  HAAN_EXPECTS(config.diurnal_amplitude >= 0.0 && config.diurnal_amplitude < 1.0);
  HAAN_EXPECTS(config.diurnal_cycles > 0.0);
  HAAN_EXPECTS(config.overload_factor >= 1.0);
  HAAN_EXPECTS(config.tenants >= 1);
  HAAN_EXPECTS(config.priority_levels >= 1);
  HAAN_EXPECTS(config.tenant_rate_rps >= 0.0);
  HAAN_EXPECTS(config.deadline_us >= 0.0);

  common::Rng root(config.seed);
  common::Rng arrival_rng = root.fork();
  common::Rng length_rng = root.fork();
  common::Rng token_rng = root.fork();
  // Forked LAST so the streams above keep their pre-decode sequences: a seed
  // produces the exact same arrivals/prompts whether or not decode is on.
  common::Rng decode_rng = root.fork();
  // Same discipline, appended after decode: the SLA stream (tenants,
  // priorities) never reshuffles arrivals/lengths/tokens/decode budgets.
  common::Rng sla_rng = root.fork();

  // Per-tenant token buckets: the next instant each tenant may emit.
  std::vector<double> tenant_next_allowed(config.tenants, 0.0);
  const bool rate_limited = config.tenants > 1 && config.tenant_rate_rps > 0.0;

  std::vector<Request> requests;
  requests.reserve(config.n_requests);
  double clock_us = 0.0;
  for (std::size_t i = 0; i < config.n_requests; ++i) {
    // Exponential inter-arrival at the scenario's instantaneous rate.
    const double rate = instant_rate(config, i);
    const double u = arrival_rng.uniform();
    clock_us += -std::log(1.0 - u) / rate * 1e6;

    Request request;
    request.id = i;
    request.arrival_us = clock_us;
    const std::size_t len = draw_length(config, length_rng);
    request.tokens.resize(len);
    for (auto& token : request.tokens) {
      token = static_cast<int>(token_rng.uniform_index(config.vocab_size));
    }
    request.max_new_tokens = draw_decode(config, decode_rng);

    if (config.tenants > 1) {
      request.tenant =
          static_cast<std::uint32_t>(sla_rng.uniform_index(config.tenants));
    }
    if (config.priority_levels > 1) {
      // Multi-tenant mixes give each tenant a stable class; single-tenant
      // workloads draw a class per request.
      request.priority =
          config.tenants > 1
              ? static_cast<int>(request.tenant % config.priority_levels)
              : static_cast<int>(sla_rng.uniform_index(config.priority_levels));
    }
    request.deadline_us = config.deadline_us;
    if (rate_limited) {
      // Token bucket: a tenant over its cap has this arrival pushed to its
      // next allowed instant (the Poisson process shapes within the cap).
      double& next_allowed = tenant_next_allowed[request.tenant];
      request.arrival_us = std::max(request.arrival_us, next_allowed);
      next_allowed = request.arrival_us + 1e6 / config.tenant_rate_rps;
    }
    requests.push_back(std::move(request));
  }

  if (rate_limited) {
    // Pushed arrivals can land after later tenants' unpushed ones; restore
    // the trace contract (nondecreasing arrivals, ids 0..n-1 in arrival
    // order) with a deterministic stable sort + id reassignment.
    std::stable_sort(requests.begin(), requests.end(),
                     [](const Request& a, const Request& b) {
                       return a.arrival_us < b.arrival_us;
                     });
    for (std::size_t i = 0; i < requests.size(); ++i) requests[i].id = i;
  }
  return requests;
}

bool prompts_fit(const WorkloadConfig& config, std::size_t max_seq_len) {
  return std::max(config.min_prompt, config.max_prompt) <= max_seq_len;
}

}  // namespace haan::serve
