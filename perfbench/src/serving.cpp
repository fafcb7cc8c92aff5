#include "serving.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include "common/stats.hpp"
#include "kernels/autotune.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Seed of repeat `k` of the window: distinct inputs per repeat, all derived
/// from the run's seed (generate_workload mixes it further).
std::uint64_t repeat_seed(std::uint64_t seed, std::size_t k) {
  return seed * 0x100000001B3ULL + k;
}

/// Runs `work(i)` for i in [0, n) on up to `threads` threads.
template <typename Fn>
void parallel_for(std::size_t n, std::size_t threads, Fn work) {
  std::atomic<std::size_t> next{0};
  const auto loop = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) work(i);
  };
  std::vector<std::thread> pool;
  const std::size_t extra = std::min(threads, n) > 0 ? std::min(threads, n) - 1 : 0;
  pool.reserve(extra);
  for (std::size_t t = 0; t < extra; ++t) pool.emplace_back(loop);
  loop();
  for (std::thread& t : pool) t.join();
}

/// The tokens a served request fed through the model: its prompt plus every
/// generated token but the last (which is returned, never fed).
std::vector<int> fed_tokens(const serve::Request& request,
                            const serve::RequestResult& result) {
  std::vector<int> fed = request.tokens;
  if (result.generated.size() > 1) {
    fed.insert(fed.end(), result.generated.begin(), result.generated.end() - 1);
  }
  return fed;
}

struct Probe {
  const serve::Request* request = nullptr;
  const serve::RequestResult* result = nullptr;
};

/// The served probes of every run (a probe that came back shed or not at all
/// is already counted as a failure).
std::vector<Probe> served_probes(const std::vector<ServedRun>& runs) {
  std::vector<Probe> probes;
  for (const ServedRun& run : runs) {
    for (const std::uint64_t id : run.probe_ids) {
      const auto request = std::find_if(run.requests.begin(), run.requests.end(),
                                        [&](const serve::Request& r) { return r.id == id; });
      const auto result =
          std::find_if(run.report.results.begin(), run.report.results.end(),
                       [&](const serve::RequestResult& r) { return r.id == id; });
      if (request != run.requests.end() && result != run.report.results.end() &&
          !result->shed) {
        probes.push_back({&*request, &*result});
      }
    }
  }
  return probes;
}

}  // namespace

std::size_t requests_per_run(const Workload& workload, double seconds) {
  if (workload.closed_loop) return workload.requests_per_iteration;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(workload.traffic.rate_rps * seconds)));
}

std::unique_ptr<serve::Server> set_up_server(const Workload& workload, double seconds,
                                             int repeats, std::vector<double>& samples) {
  const serve::ServerConfig config =
      server_config(workload, requests_per_run(workload, seconds));
  std::unique_ptr<serve::Server> server;
  for (int i = 0; i < repeats; ++i) {
    server.reset();
    // A cold tuner each time: the first tuned_for(d) is part of set-up.
    kernels::reset_autotune_for_testing();
    const auto start = SteadyClock::now();
    server = std::make_unique<serve::Server>(config);
    samples.push_back(seconds_since(start));
  }
  return server;
}

void warm_up(serve::Server& server, const Workload& workload, std::uint64_t seed) {
  Workload quick = workload;
  quick.closed_loop = true;
  const auto requests = generate_requests(quick, 8, ~seed);
  (void)server.run(requests);
}

std::vector<ServedRun> serve_window(serve::Server& server, const Workload& workload,
                                    std::uint64_t seed, double seconds) {
  const std::size_t n = requests_per_run(workload, seconds);
  std::vector<ServedRun> runs;
  const auto window = SteadyClock::now();
  for (;;) {
    const std::size_t k = runs.size();
    ServedRun run;
    run.requests = generate_requests(workload, n, repeat_seed(seed, k), k * n);
    if (k == 0) run.probe_ids = insert_probes(workload, run.requests);
    const auto start = SteadyClock::now();
    run.report = server.run(run.requests);
    run.wall_s = seconds_since(start);
    const double last_s = run.wall_s;
    runs.push_back(std::move(run));
    // Closed loop: stop before an iteration that would overrun the window.
    if (!workload.closed_loop || seconds_since(window) + last_s > seconds) break;
  }
  return runs;
}

CheckResult check_runs(serve::Server& server, const Workload& workload,
                       const std::vector<ServedRun>& runs, std::size_t threads) {
  CheckResult check;
  for (const ServedRun& run : runs) {
    check.offered += run.requests.size();
    std::set<std::uint64_t> returned;
    for (const serve::RequestResult& result : run.report.results) {
      returned.insert(result.id);
      if (result.shed) ++check.shed;
    }
    for (const serve::Request& r : run.requests) {
      if (returned.count(r.id) == 0) ++check.unserved;
    }
  }

  const std::vector<Probe> sample = served_probes(runs);
  check.sampled = sample.size();
  const model::Transformer& model = server.model();
  core::ProviderOptions exact_options;
  exact_options.width = workload.model.d_model;
  exact_options.model_name = workload.model.name;
  exact_options.norm_threads = 1;

  struct PerRequest {
    bool mismatch = false;
    double rel_err_sum = 0.0;
    std::size_t rows = 0;
    std::size_t matches = 0;
  };
  std::vector<PerRequest> outcome(sample.size());
  parallel_for(sample.size(), threads, [&](std::size_t i) {
    const serve::Request& request = *sample[i].request;
    const serve::RequestResult& served = *sample[i].result;
    PerRequest& out = outcome[i];

    // Bit-identity against the single-threaded oracle.
    const serve::ServeReport reference = server.run_reference({request});
    const serve::RequestResult& oracle = reference.results.front();
    out.mismatch = oracle.hidden_checksum != served.hidden_checksum ||
                   oracle.generated != served.generated;

    // Quality: the same fed rows through the HAAN provider and the exact one.
    const std::vector<int> fed = fed_tokens(request, served);
    const auto haan_provider = server.make_provider();
    const auto exact_provider = core::make_norm_provider("exact", exact_options);
    const tensor::Tensor haan = model.forward_hidden(fed, *haan_provider);
    const tensor::Tensor exact = model.forward_hidden(fed, *exact_provider);
    out.mismatch = out.mismatch ||
                   serve::checksum_floats(haan.data()) != served.hidden_checksum;
    for (std::size_t row = 0; row < fed.size(); ++row) {
      const auto h = haan.row(row);
      const auto e = exact.row(row);
      double diff = 0.0;
      double ref = 0.0;
      for (std::size_t c = 0; c < e.size(); ++c) {
        const double d = static_cast<double>(h[c]) - static_cast<double>(e[c]);
        diff += d * d;
        ref += static_cast<double>(e[c]) * static_cast<double>(e[c]);
      }
      out.rel_err_sum += ref > 0.0 ? std::sqrt(diff / ref) : std::sqrt(diff);
      const std::size_t haan_token = tensor::argmax(model.logits_for_hidden_row(h));
      const std::size_t exact_token = tensor::argmax(model.logits_for_hidden_row(e));
      out.matches += haan_token == exact_token ? 1 : 0;
      ++out.rows;
    }
  });

  double rel_err_sum = 0.0;
  std::size_t matches = 0;
  for (std::size_t i = 0; i < outcome.size(); ++i) {
    const PerRequest& out = outcome[i];
    if (out.mismatch) check.mismatched.insert(sample[i].request->id);
    rel_err_sum += out.rel_err_sum;
    matches += out.matches;
    check.quality_rows += out.rows;
  }
  if (check.quality_rows > 0) {
    check.quality_rel_err = rel_err_sum / static_cast<double>(check.quality_rows);
    check.quality_token_match =
        static_cast<double>(matches) / static_cast<double>(check.quality_rows);
  }
  return check;
}

std::size_t compare_runs(const std::vector<ServedRun>& a, const std::vector<ServedRun>& b) {
  std::map<std::uint64_t, const serve::RequestResult*> first;
  for (const ServedRun& run : a) {
    for (const serve::RequestResult& r : run.report.results) first[r.id] = &r;
  }
  std::size_t mismatched = 0;
  for (const ServedRun& run : b) {
    for (const serve::RequestResult& r : run.report.results) {
      const auto it = first.find(r.id);
      if (it == first.end() || it->second->hidden_checksum != r.hidden_checksum ||
          it->second->generated != r.generated) {
        ++mismatched;
      }
    }
  }
  return mismatched;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end_metrics(const Workload& workload,
                                       const std::vector<ServedRun>& runs,
                                       double setup_s, double rss_mb,
                                       const CheckResult& check) {
  // Each Server::run of the window yields one value per latency metric; the
  // run reports their median, so one disturbed iteration does not move it.
  std::vector<double> tok_s, ttft_p50, ttft_p95, tpot_p50, tpot_p95, slo;
  for (const ServedRun& run : runs) {
    double prompt_tokens = 0.0;
    for (const serve::Request& r : run.requests) {
      prompt_tokens += static_cast<double>(r.tokens.size());
    }
    std::vector<double> ttft_ms;
    std::vector<double> tpot_ms;
    std::size_t met_slo = 0;
    for (const serve::RequestResult& r : run.report.results) {
      if (r.shed) continue;
      const double ttft = r.ttft_us / 1000.0;
      ttft_ms.push_back(ttft);
      double tpot = 0.0;
      if (r.generated.size() > 1) {
        tpot = (r.total_us - r.ttft_us) / 1000.0 /
               static_cast<double>(r.generated.size() - 1);
        tpot_ms.push_back(tpot);
      }
      // An oracle-mismatched request is a failure, and failures miss the SLO.
      if (ttft <= workload.slo_ttft_ms && tpot <= workload.slo_tpot_ms &&
          check.mismatched.count(r.id) == 0) {
        ++met_slo;
      }
    }
    tok_s.push_back(run.wall_s > 0.0 ? prompt_tokens / run.wall_s : 0.0);
    ttft_p50.push_back(quantile(ttft_ms, 0.50));
    ttft_p95.push_back(quantile(ttft_ms, 0.95));
    tpot_p50.push_back(quantile(tpot_ms, 0.50));
    tpot_p95.push_back(quantile(tpot_ms, 0.95));
    // Over offered requests: unserved and shed ones count as misses.
    slo.push_back(static_cast<double>(met_slo) /
                  static_cast<double>(std::max<std::size_t>(run.requests.size(), 1)));
  }
  const double offered = static_cast<double>(std::max<std::size_t>(check.offered, 1));
  // Shows how close the run's tails came to the SLO limits.
  std::printf("slo       : ttft p95 %.2f ms, tpot p95 %.2f ms; limits %.0f ms, %.0f ms\n",
              common::median_of(ttft_p95), common::median_of(tpot_p95),
              workload.slo_ttft_ms, workload.slo_tpot_ms);

  return {
      {"setup_s", setup_s, "s"},
      {"prefill_tok_s", common::median_of(tok_s), "tok/s"},
      {"ttft_p50_ms", common::median_of(ttft_p50), "ms"},
      {"ttft_p95_ms", common::median_of(ttft_p95), "ms"},
      {"tpot_p50_ms", common::median_of(tpot_p50), "ms"},
      {"slo_attainment", common::median_of(slo), "fraction"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"quality_rel_err", check.quality_rel_err, "rel"},
      {"quality_token_match", check.quality_token_match, "fraction"},
      {"success_rate", 1.0 - static_cast<double>(check.failed()) / offered, "fraction"},
  };
}

}  // namespace perfbench
