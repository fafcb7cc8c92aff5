#include <unistd.h>

#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace perfbench {

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> table;

  // Large packed prompt blocks with a short answer: tensor::linear,
  // attention and row-block RMSNorm carry the work. Closed loop — the whole
  // iteration is queued at t=0 — so the figure is capacity, not latency.
  Workload prefill;
  prefill.name = "prefill_offline";
  prefill.model = model::llama7b_surrogate(64);
  prefill.closed_loop = true;
  prefill.requests_per_iteration = 48;
  prefill.traffic.min_prompt = 96;
  prefill.traffic.max_prompt = 192;
  prefill.traffic.decode_model = serve::DecodeModel::kFixed;
  prefill.traffic.decode_tokens = 2;
  prefill.max_batch = 2;
  prefill.max_wait = std::chrono::microseconds(2000);
  prefill.slo_ttft_ms = 6300.0;
  prefill.slo_tpot_ms = 20.0;
  table.push_back(prefill);

  // Chat traffic: short prompts, geometric decode. Single-row decode steps
  // make the step scheduler, session table, KV caches and per-session arenas
  // carry the work; LayerNorm kernels, so an RMSNorm-only change should not
  // move it.
  Workload chat;
  chat.name = "chat_decode";
  chat.model = model::gpt2_355m_surrogate(96);
  chat.closed_loop = false;
  chat.traffic.rate_rps = 9.0;
  chat.traffic.min_prompt = 8;
  chat.traffic.max_prompt = 32;
  chat.traffic.decode_model = serve::DecodeModel::kGeometric;
  chat.traffic.decode_tokens = 16;
  chat.traffic.max_decode = 64;
  chat.max_batch = 8;
  chat.max_wait = std::chrono::microseconds(0);
  chat.max_rows = 32;
  chat.slo_ttft_ms = 200.0;
  chat.slo_tpot_ms = 13.0;
  table.push_back(chat);

  return table;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = make_workloads();
  return table;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload smoke_version(const Workload& workload) {
  Workload smoke = workload;
  smoke.requests_per_iteration = std::min<std::size_t>(8, workload.requests_per_iteration);
  smoke.probes = 2;
  return smoke;
}

serve::ServerConfig server_config(const Workload& workload, std::size_t n_requests) {
  // Never more compute threads than processors: workers x norm_threads <= nproc.
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kNormThreads = 1;
  const auto nproc = static_cast<std::size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  serve::ServerConfig config;
  config.model = workload.model;
  config.norm = "haan";
  config.degrade_norm = "haan-full";
  config.workers = std::clamp<std::size_t>(nproc / kNormThreads, 1, kWorkers);
  config.norm_threads = kNormThreads;
  config.queue_capacity = std::max<std::size_t>(n_requests, 1);
  config.scheduler.max_batch = workload.max_batch;
  config.scheduler.max_wait = workload.max_wait;
  config.scheduler.max_rows = workload.max_rows;
  config.scheduler.policy.policy = serve::SchedPolicy::kFifo;
  config.mode = serve::ExecMode::kChunked;
  config.prefill_chunk = 0;  // whole prompt per step
  config.numa = "auto";
  config.paced = !workload.closed_loop;
  config.stats_interval_ms = 0;
  config.keep_hidden = false;
  config.calibrate = true;
  return config;
}

std::vector<serve::Request> generate_requests(const Workload& workload, std::size_t n,
                                              std::uint64_t seed, std::uint64_t first_id) {
  serve::WorkloadConfig traffic = workload.traffic;
  traffic.n_requests = n;
  traffic.vocab_size = workload.model.vocab_size;
  traffic.seed = seed;
  std::vector<serve::Request> requests = serve::generate_workload(traffic);
  for (serve::Request& r : requests) {
    r.id += first_id;
    if (workload.closed_loop) r.arrival_us = 0.0;
  }
  return requests;
}

std::vector<std::uint64_t> insert_probes(const Workload& workload,
                                         std::vector<serve::Request>& requests) {
  // The probe set depends on the workload only, never on the run's seed.
  constexpr std::uint64_t kProbeSeed = 0x9B0BE5;
  const std::size_t k = std::min(workload.probes, requests.size());
  const std::vector<serve::Request> probes =
      generate_requests(workload, k, kProbeSeed);
  std::vector<std::uint64_t> ids;
  for (std::size_t j = 0; j < k; ++j) {
    serve::Request& target = requests[j * requests.size() / k];
    target.tokens = probes[j].tokens;
    target.max_new_tokens = probes[j].max_new_tokens;
    ids.push_back(target.id);
  }
  return ids;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[index - 1];
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace perfbench
