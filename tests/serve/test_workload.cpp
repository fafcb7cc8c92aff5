#include "serve/workload.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace haan::serve {
namespace {

WorkloadConfig base_config() {
  WorkloadConfig config;
  config.n_requests = 400;
  config.rate_rps = 1000.0;
  config.min_prompt = 4;
  config.max_prompt = 16;
  config.vocab_size = 64;
  config.seed = 11;
  return config;
}

TEST(Workload, DeterministicUnderFixedSeed) {
  const auto a = generate_workload(base_config());
  const auto b = generate_workload(base_config());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].tokens, b[i].tokens);
    EXPECT_DOUBLE_EQ(a[i].arrival_us, b[i].arrival_us);
  }
}

TEST(Workload, DifferentSeedsDiffer) {
  auto config = base_config();
  const auto a = generate_workload(config);
  config.seed = 12;
  const auto b = generate_workload(config);
  bool any_different = false;
  for (std::size_t i = 0; i < a.size() && !any_different; ++i) {
    any_different = a[i].tokens != b[i].tokens ||
                    a[i].arrival_us != b[i].arrival_us;
  }
  EXPECT_TRUE(any_different);
}

TEST(Workload, IdsSequentialArrivalsMonotone) {
  const auto requests = generate_workload(base_config());
  ASSERT_EQ(requests.size(), 400u);
  double last = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].id, i);
    EXPECT_GE(requests[i].arrival_us, last);
    last = requests[i].arrival_us;
  }
}

TEST(Workload, PromptLengthsAndTokensWithinBounds) {
  const auto config = base_config();
  for (const auto& request : generate_workload(config)) {
    EXPECT_GE(request.tokens.size(), config.min_prompt);
    EXPECT_LE(request.tokens.size(), config.max_prompt);
    for (const int token : request.tokens) {
      EXPECT_GE(token, 0);
      EXPECT_LT(token, static_cast<int>(config.vocab_size));
    }
  }
}

TEST(Workload, FixedLengthModelUsesMinPrompt) {
  auto config = base_config();
  config.length_model = LengthModel::kFixed;
  for (const auto& request : generate_workload(config)) {
    EXPECT_EQ(request.tokens.size(), config.min_prompt);
  }
}

TEST(Workload, BimodalLengthsAreTwoPoint) {
  auto config = base_config();
  config.length_model = LengthModel::kBimodal;
  config.long_fraction = 0.3;
  std::size_t longs = 0;
  const auto requests = generate_workload(config);
  for (const auto& request : requests) {
    const std::size_t len = request.tokens.size();
    EXPECT_TRUE(len == config.min_prompt || len == config.max_prompt);
    if (len == config.max_prompt) ++longs;
  }
  // ~30% of 400; generous band.
  EXPECT_GT(longs, 60u);
  EXPECT_LT(longs, 180u);
}

TEST(Workload, SteadyMeanRateNearConfigured) {
  auto config = base_config();
  config.n_requests = 2000;
  const auto requests = generate_workload(config);
  const double span_s = requests.back().arrival_us / 1e6;
  const double rate = static_cast<double>(requests.size()) / span_s;
  EXPECT_NEAR(rate, config.rate_rps, config.rate_rps * 0.15);
}

TEST(Workload, BurstyMeanRateMatchesConfigured) {
  // Regression: the raw rate*f / rate/f square wave has mean inter-arrival
  // (1/f + f)/2 / rate — 4x the configured gap at f=8 — so bursty runs
  // under-delivered the offered load. The phases are now normalized so the
  // empirical mean rate equals rate_rps.
  auto config = base_config();
  config.scenario = Scenario::kBursty;
  config.burst_factor = 8.0;
  config.n_requests = 6000;
  const auto requests = generate_workload(config);
  const double span_s = requests.back().arrival_us / 1e6;
  const double rate = static_cast<double>(requests.size()) / span_s;
  EXPECT_NEAR(rate, config.rate_rps, config.rate_rps * 0.15);
}

TEST(Workload, BurstyPeakTroughRatioIsBurstFactorSquared) {
  auto config = base_config();
  config.scenario = Scenario::kBursty;
  config.burst_factor = 4.0;
  config.burst_period = 500;
  config.n_requests = 2000;  // exactly two peak and two trough phases
  const auto requests = generate_workload(config);
  const auto phase_span = [&](std::size_t begin, std::size_t end) {
    return requests[end - 1].arrival_us - requests[begin].arrival_us;
  };
  // Peak phases (requests 0-499, 1000-1499) run ~f^2 denser than trough
  // phases (500-999, 1500-1999); generous band for Poisson noise.
  const double peak = phase_span(0, 500) + phase_span(1000, 1500);
  const double trough = phase_span(500, 1000) + phase_span(1500, 2000);
  EXPECT_GT(trough / peak, 8.0);
  EXPECT_LT(trough / peak, 32.0);
}

TEST(Workload, RampEndsDenserThanItStarts) {
  auto config = base_config();
  config.scenario = Scenario::kRamp;
  config.n_requests = 1000;
  const auto requests = generate_workload(config);
  const std::size_t half = requests.size() / 2;
  const double first_half = requests[half - 1].arrival_us;
  const double second_half = requests.back().arrival_us - first_half;
  // Rate ramps 0.25x -> 2x: the first half of the requests takes much longer.
  EXPECT_GT(first_half, second_half * 1.5);
}

TEST(Workload, BurstyHasHigherInterarrivalVarianceThanSteady) {
  auto config = base_config();
  config.n_requests = 1024;
  const auto steady = generate_workload(config);
  config.scenario = Scenario::kBursty;
  config.burst_factor = 8.0;
  const auto bursty = generate_workload(config);

  const auto interarrival_cv2 = [](const std::vector<Request>& requests) {
    double mean = 0.0, m2 = 0.0;
    const std::size_t n = requests.size() - 1;
    std::vector<double> gaps(n);
    for (std::size_t i = 0; i < n; ++i) {
      gaps[i] = requests[i + 1].arrival_us - requests[i].arrival_us;
      mean += gaps[i];
    }
    mean /= static_cast<double>(n);
    for (const double g : gaps) m2 += (g - mean) * (g - mean);
    return m2 / static_cast<double>(n) / (mean * mean);  // squared CV
  };
  // Exponential gaps have CV^2 ~ 1; the 8x square wave inflates it well past.
  EXPECT_GT(interarrival_cv2(bursty), interarrival_cv2(steady) * 1.5);
}

TEST(Workload, ScenarioAndLengthModelStringsRoundTrip) {
  for (const auto scenario :
       {Scenario::kSteady, Scenario::kBursty, Scenario::kRamp,
        Scenario::kDiurnal, Scenario::kOverload}) {
    EXPECT_EQ(scenario_from_string(to_string(scenario)), scenario);
  }
  for (const auto model :
       {LengthModel::kFixed, LengthModel::kUniform, LengthModel::kBimodal}) {
    EXPECT_EQ(length_model_from_string(to_string(model)), model);
  }
  for (const auto model : {DecodeModel::kNone, DecodeModel::kFixed,
                           DecodeModel::kGeometric}) {
    EXPECT_EQ(decode_model_from_string(to_string(model)), model);
  }
  EXPECT_FALSE(try_decode_model_from_string("bogus").has_value());
}

TEST(Workload, DefaultDecodeModelLeavesRequestsPrefillOnly) {
  for (const auto& request : generate_workload(base_config())) {
    EXPECT_EQ(request.max_new_tokens, 0u);
  }
}

TEST(Workload, EnablingDecodeDoesNotReshuffleOtherStreams) {
  // The decode Rng forks AFTER arrival/length/token, so a seed's arrivals,
  // prompts and token contents are bit-identical with decode on or off.
  const auto prefill_only = generate_workload(base_config());
  auto config = base_config();
  config.decode_model = DecodeModel::kGeometric;
  config.decode_tokens = 6;
  const auto with_decode = generate_workload(config);
  ASSERT_EQ(prefill_only.size(), with_decode.size());
  for (std::size_t i = 0; i < prefill_only.size(); ++i) {
    EXPECT_EQ(prefill_only[i].tokens, with_decode[i].tokens);
    EXPECT_DOUBLE_EQ(prefill_only[i].arrival_us, with_decode[i].arrival_us);
    EXPECT_EQ(prefill_only[i].max_new_tokens, 0u);
  }
}

TEST(Workload, FixedDecodeModelAssignsConstantBudget) {
  auto config = base_config();
  config.decode_model = DecodeModel::kFixed;
  config.decode_tokens = 5;
  for (const auto& request : generate_workload(config)) {
    EXPECT_EQ(request.max_new_tokens, 5u);
  }
}

TEST(Workload, GeometricDecodeLengthsHaveConfiguredMeanAndCap) {
  auto config = base_config();
  config.n_requests = 4000;
  config.decode_model = DecodeModel::kGeometric;
  config.decode_tokens = 8;
  config.max_decode = 64;
  double sum = 0.0;
  std::size_t at_least_two = 0;
  for (const auto& request : generate_workload(config)) {
    EXPECT_GE(request.max_new_tokens, 1u);
    EXPECT_LE(request.max_new_tokens, config.max_decode);
    sum += static_cast<double>(request.max_new_tokens);
    if (request.max_new_tokens >= 2) ++at_least_two;
  }
  const double mean = sum / static_cast<double>(config.n_requests);
  EXPECT_NEAR(mean, 8.0, 1.0);  // generous band for the cap's truncation
  EXPECT_GT(at_least_two, config.n_requests / 2);  // genuinely dispersed
}

TEST(Workload, DiurnalIsDeterministicAndConservesMeanRate) {
  auto config = base_config();
  config.scenario = Scenario::kDiurnal;
  config.diurnal_amplitude = 0.8;
  config.diurnal_cycles = 2.0;  // whole cycles integrate to the mean
  config.n_requests = 4000;
  const auto a = generate_workload(config);
  const auto b = generate_workload(config);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].arrival_us, b[i].arrival_us);
  }
  const double span_s = a.back().arrival_us / 1e6;
  const double rate = static_cast<double>(a.size()) / span_s;
  EXPECT_NEAR(rate, config.rate_rps, config.rate_rps * 0.2);
}

TEST(Workload, DiurnalPeaksAreDenserThanTroughs) {
  auto config = base_config();
  config.scenario = Scenario::kDiurnal;
  config.diurnal_amplitude = 0.9;
  config.diurnal_cycles = 1.0;
  config.n_requests = 4000;
  const auto requests = generate_workload(config);
  // One cycle: peak rate around t = 0.25 (sin = 1), trough around t = 0.75
  // (sin = -1). Compare the spans of same-size windows around each.
  const auto window_span = [&](double center) {
    const std::size_t mid =
        static_cast<std::size_t>(center * static_cast<double>(requests.size()));
    return requests[mid + 200].arrival_us - requests[mid - 200].arrival_us;
  };
  EXPECT_GT(window_span(0.75) / window_span(0.25), 3.0);
}

TEST(Workload, OverloadSpikeIsDenserThanShoulders) {
  auto config = base_config();
  config.scenario = Scenario::kOverload;
  config.overload_factor = 8.0;
  config.n_requests = 4000;
  const auto requests = generate_workload(config);
  const std::size_t n = requests.size();
  // Spike covers the middle [0.3, 0.7) of the stream.
  const double before = requests[n * 3 / 10].arrival_us;
  const double spike =
      requests[n * 7 / 10 - 1].arrival_us - requests[n * 3 / 10].arrival_us;
  const double after =
      requests[n - 1].arrival_us - requests[n * 7 / 10 - 1].arrival_us;
  // Both shoulders carry 3/4 as many requests as the spike at 1/8 the rate.
  EXPECT_GT(before / spike, 3.0);
  EXPECT_GT(after / spike, 3.0);
}

TEST(Workload, SlaKnobsDoNotReshuffleOtherStreams) {
  // The SLA Rng forks AFTER arrival/length/token/decode, so turning on
  // tenants/priorities/deadlines (without rate caps) leaves the rest of the
  // trace bit-identical.
  auto config = base_config();
  config.decode_model = DecodeModel::kGeometric;
  const auto plain = generate_workload(config);
  config.tenants = 4;
  config.priority_levels = 2;
  config.deadline_us = 5000.0;
  const auto with_sla = generate_workload(config);
  ASSERT_EQ(plain.size(), with_sla.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].tokens, with_sla[i].tokens);
    EXPECT_DOUBLE_EQ(plain[i].arrival_us, with_sla[i].arrival_us);
    EXPECT_EQ(plain[i].max_new_tokens, with_sla[i].max_new_tokens);
    EXPECT_DOUBLE_EQ(with_sla[i].deadline_us, 5000.0);
  }
}

TEST(Workload, TenantsAndPrioritiesAreAssignedWithinBounds) {
  auto config = base_config();
  config.tenants = 4;
  config.priority_levels = 2;
  std::vector<std::size_t> per_tenant(config.tenants, 0);
  for (const auto& request : generate_workload(config)) {
    ASSERT_LT(request.tenant, config.tenants);
    ASSERT_GE(request.priority, 0);
    ASSERT_LT(request.priority, static_cast<int>(config.priority_levels));
    // Multi-tenant mixes give each tenant a stable class.
    EXPECT_EQ(request.priority,
              static_cast<int>(request.tenant % config.priority_levels));
    ++per_tenant[request.tenant];
  }
  // Uniform tenant draw: every tenant sees a healthy share of 400 requests.
  for (const std::size_t count : per_tenant) EXPECT_GT(count, 50u);
}

TEST(Workload, SingleTenantPrioritiesAreDispersed) {
  auto config = base_config();
  config.priority_levels = 3;
  std::vector<std::size_t> per_class(config.priority_levels, 0);
  for (const auto& request : generate_workload(config)) {
    ASSERT_GE(request.priority, 0);
    ASSERT_LT(request.priority, 3);
    ++per_class[static_cast<std::size_t>(request.priority)];
  }
  for (const std::size_t count : per_class) EXPECT_GT(count, 60u);
}

TEST(Workload, PerTenantRateLimitIsHonored) {
  auto config = base_config();
  config.rate_rps = 10000.0;  // offered well above the caps
  config.tenants = 4;
  config.tenant_rate_rps = 500.0;  // min gap 2000 us per tenant
  config.n_requests = 800;
  const auto requests = generate_workload(config);

  // Trace contract survives the re-sort: ids sequential, arrivals monotone.
  double last = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].id, i);
    EXPECT_GE(requests[i].arrival_us, last);
    last = requests[i].arrival_us;
  }

  // Every tenant's consecutive arrivals are >= the token-bucket gap.
  const double min_gap_us = 1e6 / config.tenant_rate_rps;
  std::vector<double> last_arrival(config.tenants, -1e18);
  for (const auto& request : requests) {
    const double gap = request.arrival_us - last_arrival[request.tenant];
    EXPECT_GE(gap, min_gap_us * 0.999);  // float tolerance
    last_arrival[request.tenant] = request.arrival_us;
  }
}

TEST(Workload, UncappedTenantsKeepPoissonArrivals) {
  // tenant_rate_rps = 0: multi-tenancy must not perturb the arrival process.
  auto config = base_config();
  const auto plain = generate_workload(config);
  config.tenants = 4;
  const auto tenanted = generate_workload(config);
  ASSERT_EQ(plain.size(), tenanted.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain[i].arrival_us, tenanted[i].arrival_us);
    EXPECT_EQ(plain[i].id, tenanted[i].id);
  }
}

TEST(Workload, GeometricDecodeRespectsTightCap) {
  auto config = base_config();
  config.decode_model = DecodeModel::kGeometric;
  config.decode_tokens = 16;
  config.max_decode = 4;
  for (const auto& request : generate_workload(config)) {
    EXPECT_GE(request.max_new_tokens, 1u);
    EXPECT_LE(request.max_new_tokens, 4u);
  }
}

TEST(Workload, PromptsFitChecksTheLongestPromptAgainstTheWindow) {
  auto config = base_config();
  config.min_prompt = 8;
  config.max_prompt = 64;
  EXPECT_TRUE(prompts_fit(config, 64));   // exactly the window
  EXPECT_FALSE(prompts_fit(config, 63));  // one token over
  // The fixed length model serves min_prompt, so it counts too.
  config.length_model = LengthModel::kFixed;
  config.min_prompt = 100;
  EXPECT_FALSE(prompts_fit(config, 64));
  // Every generated prompt really is within the bound prompts_fit checked.
  config = base_config();
  ASSERT_TRUE(prompts_fit(config, config.max_prompt));
  for (const auto& request : generate_workload(config)) {
    EXPECT_LE(request.tokens.size(), config.max_prompt);
  }
}

}  // namespace
}  // namespace haan::serve
