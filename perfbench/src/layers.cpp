#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/calibration.hpp"
#include "kernels/autotune.hpp"
#include "kernels/kernels.hpp"
#include "model/transformer.hpp"
#include "obs/trace.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// Minimum measuring time of each micro-timing below.
constexpr double kMicroSeconds = 0.4;

/// Forwards every call to the provider the server would build, timing the
/// row-block entry points (the only ones a packed forward uses).
class TimedProvider final : public model::NormProvider {
 public:
  explicit TimedProvider(std::unique_ptr<model::NormProvider> inner)
      : inner_(std::move(inner)) {}

  const model::NormProvider* inner() const { return inner_.get(); }
  double seconds() const { return seconds_; }
  std::size_t rows() const { return rows_; }

  void begin_sequence() override { inner_->begin_sequence(); }
  const char* trace_label() const override { return inner_->trace_label(); }

  void normalize(std::size_t layer, std::size_t position, model::NormKind kind,
                 std::span<const float> z, std::span<const float> alpha,
                 std::span<const float> beta, std::span<float> out) override {
    inner_->normalize(layer, position, kind, z, alpha, beta, out);
  }
  void residual_add_normalize(std::size_t layer, std::size_t position,
                              model::NormKind kind, std::span<float> h,
                              std::span<const float> residual,
                              std::span<const float> alpha, std::span<const float> beta,
                              std::span<float> out) override {
    inner_->residual_add_normalize(layer, position, kind, h, residual, alpha, beta, out);
  }
  void normalize_rows(std::size_t layer, std::size_t start, model::NormKind kind,
                      std::size_t rows, std::span<const float> x,
                      std::span<const float> alpha, std::span<const float> beta,
                      std::span<float> out) override {
    const auto t0 = SteadyClock::now();
    inner_->normalize_rows(layer, start, kind, rows, x, alpha, beta, out);
    seconds_ += seconds_since(t0);
    rows_ += rows;
  }
  void residual_add_normalize_rows(std::size_t layer, std::size_t start,
                                   model::NormKind kind, std::size_t rows,
                                   std::span<float> h, std::span<const float> residual,
                                   std::span<const float> alpha,
                                   std::span<const float> beta,
                                   std::span<float> out) override {
    const auto t0 = SteadyClock::now();
    inner_->residual_add_normalize_rows(layer, start, kind, rows, h, residual, alpha,
                                        beta, out);
    seconds_ += seconds_since(t0);
    rows_ += rows;
  }

 private:
  std::unique_ptr<model::NormProvider> inner_;
  double seconds_ = 0.0;
  std::size_t rows_ = 0;
};

// --- Chrome trace parsing ----------------------------------------------------

/// One closed span from the exported trace.
struct Span {
  std::string name;
  std::string phase;  ///< args.phase, empty when untagged
  std::uint64_t arg_a = 0;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::size_t depth = 0;  ///< open spans on the same thread at its begin
};

/// Text after `"key":` in a one-event line, or npos.
std::size_t field(const std::string& line, const char* key) {
  const std::string pattern = std::string("\"") + key + "\":";
  const std::size_t at = line.find(pattern);
  return at == std::string::npos ? at : at + pattern.size();
}

std::string string_field(const std::string& line, const char* key) {
  std::size_t at = field(line, key);
  if (at == std::string::npos || at >= line.size() || line[at] != '"') return {};
  const std::size_t end = line.find('"', at + 1);
  return end == std::string::npos ? std::string() : line.substr(at + 1, end - at - 1);
}

double number_field(const std::string& line, const char* key) {
  const std::size_t at = field(line, key);
  return at == std::string::npos ? 0.0 : std::strtod(line.c_str() + at, nullptr);
}

/// The export writes one event per line; spans are balanced per thread.
std::vector<Span> parse_spans(const std::string& json) {
  std::map<std::size_t, std::vector<Span>> stacks;
  std::vector<Span> spans;
  std::istringstream in(json);
  std::string line;
  while (std::getline(in, line)) {
    const std::string ph = string_field(line, "ph");
    if (ph != "B" && ph != "E") continue;
    const auto tid = static_cast<std::size_t>(number_field(line, "tid"));
    const double ts = number_field(line, "ts");
    std::vector<Span>& stack = stacks[tid];
    if (ph == "B") {
      Span span;
      span.name = string_field(line, "name");
      span.phase = string_field(line, "phase");
      span.arg_a = static_cast<std::uint64_t>(number_field(line, "a"));
      span.start_us = ts;
      span.depth = stack.size();
      stack.push_back(std::move(span));
    } else if (!stack.empty()) {
      Span span = std::move(stack.back());
      stack.pop_back();
      span.dur_us = ts - span.start_us;
      spans.push_back(std::move(span));
    }
  }
  return spans;
}

// --- Forward replay ------------------------------------------------------------

/// Aggregates over every report of a window.
struct PackTotals {
  double packs = 0, rows = 0, sequences = 0, batches = 0, batch_requests = 0;
  double prefill_rows = 0, decode_rows = 0;
  double prefill_packs = 0, decode_packs = 0, mixed_packs = 0;
  double max_kv_bytes = 0;
  double arena_bytes = 0, arena_allocations = 0, arena_slab_allocations = 0;

  double prefill_rows_per_pack() const {
    return prefill_packs + mixed_packs > 0 ? prefill_rows / (prefill_packs + mixed_packs) : 0;
  }
  double decode_rows_per_pack() const {
    return decode_packs + mixed_packs > 0 ? decode_rows / (decode_packs + mixed_packs) : 0;
  }
};

PackTotals pack_totals(const std::vector<ServedRun>& runs) {
  PackTotals t;
  for (const ServedRun& run : runs) {
    const serve::ServeMetrics& m = run.report.metrics;
    t.packs += static_cast<double>(m.packed_forwards);
    t.rows += static_cast<double>(m.packed_rows);
    t.sequences += static_cast<double>(m.packed_sequences);
    t.batches += static_cast<double>(m.batches);
    t.batch_requests += m.mean_batch_size * static_cast<double>(m.batches);
    t.prefill_rows += static_cast<double>(m.prefill_rows);
    t.decode_rows += static_cast<double>(m.decode_rows);
    t.prefill_packs += static_cast<double>(m.prefill_packs);
    t.decode_packs += static_cast<double>(m.decode_packs);
    t.mixed_packs += static_cast<double>(m.mixed_packs);
    t.max_kv_bytes = std::max(t.max_kv_bytes, static_cast<double>(m.max_kv_bytes));
    t.arena_bytes = std::max(t.arena_bytes, static_cast<double>(m.mem.arena_bytes));
    t.arena_allocations += static_cast<double>(m.mem.arena_allocations);
    t.arena_slab_allocations += static_cast<double>(m.mem.arena_slab_allocations);
  }
  return t;
}

/// One replayed pack shape: `sequences` one-shot prompt chunks (prefill) or
/// single decode rows continuing cached prompts (decode).
struct PackShape {
  bool decode = false;
  std::vector<std::vector<int>> sequences;
};

PackShape prefill_shape(const std::vector<ServedRun>& runs, std::size_t rows) {
  PackShape shape;
  std::size_t filled = 0;
  for (const ServedRun& run : runs) {
    for (const serve::Request& r : run.requests) {
      if (filled >= rows) return shape;
      const std::size_t take = std::min(r.tokens.size(), rows - filled);
      shape.sequences.emplace_back(r.tokens.begin(), r.tokens.begin() + take);
      filled += take;
    }
  }
  return shape;
}

PackShape decode_shape(const std::vector<ServedRun>& runs, std::size_t rows) {
  PackShape shape;
  shape.decode = true;
  for (const ServedRun& run : runs) {
    for (const serve::Request& r : run.requests) {
      if (shape.sequences.size() >= rows) return shape;
      shape.sequences.push_back(r.tokens);
    }
  }
  return shape;
}

/// Times one forward_hidden_batch over `shape` with `provider`. Decode shapes
/// first prefill a KV cache per sequence with `cache_provider` (untimed) and
/// then time one single-row step each. Returns seconds; `window` receives the
/// timed call's monotonic bounds.
double time_pack(const model::Transformer& model, const PackShape& shape,
                 model::NormProvider& provider, model::NormProvider& cache_provider,
                 std::pair<std::uint64_t, std::uint64_t>* window = nullptr) {
  std::vector<std::span<const int>> sequences;
  std::vector<model::KvCache> caches;
  std::vector<model::KvCache*> cache_ptrs;
  std::vector<int> step_tokens;
  std::vector<std::size_t> lengths;
  std::vector<std::size_t> starts;
  if (shape.decode) {
    caches.reserve(shape.sequences.size());
    for (const auto& prompt : shape.sequences) {
      caches.push_back(model.make_kv_cache());
      model::KvCache* cache = &caches.back();
      const std::span<const int> seq(prompt);
      const std::size_t len = prompt.size();
      const std::size_t zero = 0;
      (void)model.forward_hidden_batch(std::span<const std::span<const int>>(&seq, 1),
                                       model::BatchLayout::from_spans({&len, 1}, {&zero, 1}),
                                       cache_provider, nullptr,
                                       std::span<model::KvCache* const>(&cache, 1));
      step_tokens.push_back(prompt.back());
      cache_ptrs.push_back(cache);
      lengths.push_back(1);
      starts.push_back(cache->position());
    }
    for (std::size_t i = 0; i < step_tokens.size(); ++i) {
      sequences.emplace_back(&step_tokens[i], 1);
    }
  } else {
    for (const auto& s : shape.sequences) {
      sequences.emplace_back(s);
      lengths.push_back(s.size());
      starts.push_back(0);
    }
  }
  const model::BatchLayout layout = model::BatchLayout::from_spans(lengths, starts);
  const std::uint64_t t0 = haan::common::monotonic_ns();
  (void)model.forward_hidden_batch(sequences, layout, provider, nullptr, cache_ptrs);
  const std::uint64_t t1 = haan::common::monotonic_ns();
  if (window != nullptr) *window = {t0, t1};
  return static_cast<double>(t1 - t0) / 1e9;
}

std::size_t shape_rows(const PackShape& shape) {
  if (shape.decode) return shape.sequences.size();
  std::size_t rows = 0;
  for (const auto& s : shape.sequences) rows += s.size();
  return rows;
}

/// Self time of the forward split by the top-level spans it contains.
struct Breakdown {
  double forward_us = 0, embed_us = 0, attn_us = 0, mlp_us = 0, norm_us = 0;
  double other_us() const {
    return std::max(0.0, forward_us - embed_us - attn_us - mlp_us - norm_us);
  }
};

Breakdown traced_breakdown(const model::Transformer& model, const PackShape& shape,
                           model::NormProvider& provider) {
  obs::tracer().reset();
  obs::tracer().set_enabled(true);
  std::pair<std::uint64_t, std::uint64_t> window;
  time_pack(model, shape, provider, provider, &window);
  obs::tracer().set_enabled(false);
  const std::vector<Span> spans = parse_spans(obs::tracer().export_chrome_json());
  obs::tracer().reset();

  Breakdown b;
  const double begin_us = haan::common::ns_to_us(window.first);
  const double end_us = haan::common::ns_to_us(window.second);
  b.forward_us = end_us - begin_us;
  for (const Span& s : spans) {
    if (s.depth != 0 || s.start_us < begin_us || s.start_us > end_us) continue;
    if (s.name == "embed") b.embed_us += s.dur_us;
    else if (s.name == "attn") b.attn_us += s.dur_us;
    else if (s.name == "mlp") b.mlp_us += s.dur_us;
    else if (s.name.rfind("norm", 0) == 0) b.norm_us += s.dur_us;
  }
  return b;
}

/// Median of the seconds `timed()` reports over repeats filling
/// kMicroSeconds (at least 3).
template <typename Fn>
double median_timed_s(Fn timed) {
  std::vector<double> samples;
  const auto start = SteadyClock::now();
  while (samples.size() < 3 || seconds_since(start) < kMicroSeconds) {
    samples.push_back(timed());
  }
  return common::median_of(samples);
}

/// Median seconds of one `fn()` call.
template <typename Fn>
double median_call_s(Fn fn) {
  return median_timed_s([&] {
    const auto t0 = SteadyClock::now();
    fn();
    return seconds_since(t0);
  });
}

tensor::Tensor random_block(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  haan::common::Rng rng(seed);
  return tensor::Tensor::randn(tensor::Shape{rows, cols}, rng);
}

double linear_gmac_s(const model::Transformer& model, std::size_t rows) {
  const tensor::Tensor& w = model.weights().blocks.front().w_up;
  const tensor::Tensor x = random_block(rows, w.shape().dim(1), 11);
  const double s = median_call_s([&] { (void)tensor::linear(x, w, {}); });
  const double macs = static_cast<double>(rows * w.shape().dim(0) * w.shape().dim(1));
  return macs / s / 1e9;
}

/// {ns per row, GB/s} of the fused residual-add + norm row kernel on the
/// tuned table. Bytes are computed from tensor sizes — h and residual read,
/// h and out written, 16 bytes per element — not measured traffic.
std::pair<double, double> kernel_norm(const Workload& workload, std::size_t rows) {
  const std::size_t d = workload.model.d_model;
  const kernels::KernelTable& table = kernels::tuned_table(d);
  tensor::Tensor h = random_block(rows, d, 12);
  const tensor::Tensor residual = random_block(rows, d, 13);
  tensor::Tensor out(tensor::Shape{rows, d});
  const std::vector<float> alpha(d, 1.0f);
  const std::vector<float> beta(d, 0.0f);
  kernels::RowNormWorkspace ws;
  const bool rms = workload.model.norm_kind == model::NormKind::kRMSNorm;
  const double s = median_call_s([&] {
    if (rms) {
      kernels::residual_add_rmsnorm_rows(table, rows, h.data(), residual.data(), alpha,
                                         beta, out.data(), 1e-5, ws);
    } else {
      kernels::residual_add_layernorm_rows(table, rows, h.data(), residual.data(), alpha,
                                           beta, out.data(), 1e-5, ws);
    }
  });
  const double bytes = 16.0 * static_cast<double>(rows * d);
  return {s * 1e9 / static_cast<double>(rows), bytes / s / 1e9};
}

std::size_t rounded_rows(double rows) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(rows)));
}

}  // namespace

SetupParts time_setup_parts(const Workload& workload) {
  SetupParts parts;
  kernels::reset_autotune_for_testing();
  auto start = SteadyClock::now();
  (void)kernels::tuned_for(workload.model.d_model);
  parts.autotune_s = seconds_since(start);

  start = SteadyClock::now();
  model::Transformer model(workload.model);
  parts.model_s = seconds_since(start);

  start = SteadyClock::now();
  (void)core::calibrate_skip_plan(model, server_config(workload, 1).calibration);
  parts.calibrate_s = seconds_since(start);
  return parts;
}

std::vector<ServedRun> traced_replay(serve::Server& server,
                                     const std::vector<ServedRun>& untraced,
                                     std::string& trace_json) {
  obs::tracer().reset();
  // Room for every event of the window: a dropped begin loses its span.
  obs::tracer().set_ring_capacity(std::size_t{1} << 18);
  obs::tracer().set_enabled(true);
  std::vector<ServedRun> traced;
  for (const ServedRun& source : untraced) {
    ServedRun run;
    run.requests = source.requests;
    const auto start = SteadyClock::now();
    run.report = server.run(run.requests);
    run.wall_s = seconds_since(start);
    traced.push_back(std::move(run));
  }
  obs::tracer().set_enabled(false);
  const obs::Tracer::Stats stats = obs::tracer().stats();
  if (stats.dropped > 0) {
    std::printf("warning: the traced run dropped %llu trace events\n",
                static_cast<unsigned long long>(stats.dropped));
  }
  trace_json = obs::tracer().export_chrome_json();
  obs::tracer().reset();
  return traced;
}

std::vector<Metric> layer_metrics(const Workload& workload, serve::Server& server,
                                  const std::vector<ServedRun>& untraced,
                                  const std::vector<ServedRun>& traced,
                                  const std::string& trace_json,
                                  const SetupParts& setup) {
  const model::Transformer& model = server.model();
  const PackTotals totals = pack_totals(untraced);

  // Forward replay at the window's pack shapes, weighted by its row mix.
  const std::size_t prefill_rows = rounded_rows(totals.prefill_rows_per_pack());
  const std::size_t decode_rows = rounded_rows(totals.decode_rows_per_pack());
  const PackShape prefill = prefill_shape(untraced, prefill_rows);
  const PackShape decode = decode_shape(untraced, decode_rows);
  const double total_rows = std::max(1.0, totals.prefill_rows + totals.decode_rows);
  const double w_prefill = totals.prefill_rows / total_rows;
  const double w_decode = totals.decode_rows / total_rows;

  TimedProvider timed(server.make_provider());
  const auto cache_provider = server.make_provider();
  const double prefill_us_row =
      median_timed_s([&] { return time_pack(model, prefill, timed, *cache_provider); }) *
      1e6 / static_cast<double>(shape_rows(prefill));
  const double decode_us_row =
      median_timed_s([&] { return time_pack(model, decode, timed, *cache_provider); }) *
      1e6 / static_cast<double>(shape_rows(decode));
  const double forward_us_row = w_prefill * prefill_us_row + w_decode * decode_us_row;
  double isd_share = 0.0;
  double elements_per_row = 0.0;
  if (const core::HaanNormProvider* haan = core::as_haan_provider(timed.inner())) {
    const auto& c = haan->counters();
    const double isd = static_cast<double>(c.isd_computed + c.isd_predicted);
    isd_share = isd > 0 ? static_cast<double>(c.isd_predicted) / isd : 0.0;
    elements_per_row = c.norm_calls > 0 ? static_cast<double>(c.elements_read) /
                                              static_cast<double>(c.norm_calls)
                                        : 0.0;
  }
  const double norm_us_row =
      timed.rows() > 0 ? timed.seconds() * 1e6 / static_cast<double>(timed.rows()) : 0.0;

  const auto provider = server.make_provider();
  const Breakdown bp = traced_breakdown(model, prefill, *provider);
  const Breakdown bd = traced_breakdown(model, decode, *provider);
  const auto per_row = [&](double (*part)(const Breakdown&)) {
    return w_prefill * part(bp) / static_cast<double>(shape_rows(prefill)) +
           w_decode * part(bd) / static_cast<double>(shape_rows(decode));
  };
  const double f_us = per_row([](const Breakdown& b) { return b.forward_us; });
  const double e_us = per_row([](const Breakdown& b) { return b.embed_us; });
  const double a_us = per_row([](const Breakdown& b) { return b.attn_us; });
  const double m_us = per_row([](const Breakdown& b) { return b.mlp_us; });
  const double n_us = per_row([](const Breakdown& b) { return b.norm_us; });
  const double o_us = per_row([](const Breakdown& b) { return b.other_us(); });
  const auto share = [&](double us) { return f_us > 0 ? us / f_us : 0.0; };

  // Serving-layer figures: counters from the untraced reports, step times,
  // busy time and feeder lag from the traced replay's spans.
  std::vector<double> queue_ms;
  std::vector<double> itl_p50_ms;
  std::vector<double> itl_p99_ms;
  for (const ServedRun& run : untraced) {
    for (const serve::RequestResult& r : run.report.results) queue_ms.push_back(r.queue_us / 1000.0);
    itl_p50_ms.push_back(run.report.metrics.intertoken.p50_us / 1000.0);
    itl_p99_ms.push_back(run.report.metrics.intertoken.p99_us / 1000.0);
  }
  const std::vector<Span> spans = parse_spans(trace_json);
  std::map<std::string, std::vector<double>> step_ms;
  double forward_busy_us = 0.0;
  std::map<std::uint64_t, double> enqueue_us;
  for (const Span& s : spans) {
    if (s.name == "forward") {
      step_ms[s.phase].push_back(s.dur_us / 1000.0);
      forward_busy_us += s.dur_us;
    } else if (s.name == "enqueue") {
      enqueue_us[s.arg_a] = s.start_us;
    }
  }
  // Feeder lag: how late each request was enqueued against its due time,
  // relative to the earliest-running request of its run.
  std::vector<double> lag_ms;
  double traced_wall_s = 0.0;
  double untraced_wall_s = 0.0;
  for (const ServedRun& run : traced) {
    traced_wall_s += run.wall_s;
    std::vector<double> offsets;
    for (const serve::Request& r : run.requests) {
      const auto it = enqueue_us.find(static_cast<std::uint32_t>(r.id));
      if (it != enqueue_us.end()) offsets.push_back(it->second - r.arrival_us);
    }
    if (offsets.empty()) continue;
    const double base = *std::min_element(offsets.begin(), offsets.end());
    for (double o : offsets) lag_ms.push_back((o - base) / 1000.0);
  }
  for (const ServedRun& run : untraced) untraced_wall_s += run.wall_s;
  const double busy_share =
      traced_wall_s > 0 ? forward_busy_us / 1e6 /
                              (static_cast<double>(server.config().workers) * traced_wall_s)
                        : 0.0;

  const auto [kernel_ns_row, kernel_gb_s] = kernel_norm(workload, rounded_rows(
      totals.packs > 0 ? totals.rows / totals.packs : 1.0));
  const double all_packs = totals.prefill_packs + totals.decode_packs + totals.mixed_packs;

  std::printf("\nForward breakdown (Fig. 1(b) style), %s, %s d=%zu, replayed at "
              "prefill %zu rows/pack and decode %zu rows/pack, weighted %.3f/%.3f:\n",
              workload.name.c_str(), workload.model.name.c_str(), workload.model.d_model,
              shape_rows(prefill), shape_rows(decode), w_prefill, w_decode);
  std::printf("  %-10s %12s %8s\n", "op", "us/row", "share");
  const std::pair<const char*, double> rows[] = {
      {"embed", e_us}, {"attn", a_us}, {"mlp", m_us}, {"norm", n_us}, {"other", o_us}};
  for (const auto& [name, us] : rows) {
    std::printf("  %-10s %12.3f %7.2f%%\n", name, us, 100.0 * share(us));
  }
  std::printf("  %-10s %12.3f %7.2f%%  (paper Fig. 1(b): norm 14-36%% of inference)\n",
              "forward", f_us, 100.0);
  std::printf("  kernel bytes are computed from tensor sizes (16 B/element), not measured\n");

  return {
      {"tensor.linear_gmac_s_prefill", linear_gmac_s(model, prefill_rows), "GMAC/s"},
      {"tensor.linear_gmac_s_decode", linear_gmac_s(model, decode_rows), "GMAC/s"},
      {"model.forward_us_per_row", forward_us_row, "us"},
      {"model.embed_share", share(e_us), "fraction"},
      {"model.attn_share", share(a_us), "fraction"},
      {"model.mlp_share", share(m_us), "fraction"},
      {"model.norm_share", share(n_us), "fraction"},
      {"model.other_share", share(o_us), "fraction"},
      {"model.kv_peak_mb", totals.max_kv_bytes / 1e6, "MB"},
      {"core.norm_us_per_row", norm_us_row, "us"},
      {"core.isd_predicted_share", isd_share, "fraction"},
      {"core.elements_read_per_row", elements_per_row, "count"},
      {"kernels.norm_ns_per_row", kernel_ns_row, "ns"},
      {"kernels.norm_gb_s", kernel_gb_s, "GB/s"},
      {"serve.itl_p50_ms", common::median_of(itl_p50_ms), "ms"},
      {"serve.itl_p99_ms", common::median_of(itl_p99_ms), "ms"},
      {"serve.queue_wait_ms_p50", quantile(queue_ms, 0.50), "ms"},
      {"serve.queue_wait_ms_p95", quantile(queue_ms, 0.95), "ms"},
      {"serve.batch_size_mean", totals.batches > 0 ? totals.batch_requests / totals.batches : 0.0,
       "count"},
      {"serve.rows_per_pack", totals.packs > 0 ? totals.rows / totals.packs : 0.0, "count"},
      {"serve.pack_occupancy",
       totals.packs > 0 ? totals.sequences /
                              (totals.packs * static_cast<double>(workload.max_batch))
                        : 0.0,
       "fraction"},
      {"serve.prefill_rows_per_pack", totals.prefill_rows_per_pack(), "count"},
      {"serve.decode_rows_per_pack", totals.decode_rows_per_pack(), "count"},
      {"serve.mixed_pack_share", all_packs > 0 ? totals.mixed_packs / all_packs : 0.0,
       "fraction"},
      {"serve.step_ms_p50_prefill", quantile(step_ms["prefill"], 0.50), "ms"},
      {"serve.step_ms_p99_prefill", quantile(step_ms["prefill"], 0.99), "ms"},
      {"serve.step_ms_p50_decode", quantile(step_ms["decode"], 0.50), "ms"},
      {"serve.step_ms_p99_decode", quantile(step_ms["decode"], 0.99), "ms"},
      {"serve.step_ms_p50_mixed", quantile(step_ms["mixed"], 0.50), "ms"},
      {"serve.step_ms_p99_mixed", quantile(step_ms["mixed"], 0.99), "ms"},
      {"serve.busy_share", busy_share, "fraction"},
      {"serve.feeder_lag_ms_p99", quantile(lag_ms, 0.99), "ms"},
      {"mem.arena_mb", totals.arena_bytes / 1e6, "MB"},
      {"mem.arena_reuse_ratio",
       totals.arena_allocations > 0
           ? 1.0 - totals.arena_slab_allocations / totals.arena_allocations
           : 1.0,
       "fraction"},
      {"mem.arena_slab_allocations", totals.arena_slab_allocations, "count"},
      {"setup.model_s", setup.model_s, "s"},
      {"setup.calibrate_s", setup.calibrate_s, "s"},
      {"setup.autotune_s", setup.autotune_s, "s"},
      {"obs.trace_overhead", untraced_wall_s > 0 ? traced_wall_s / untraced_wall_s : 0.0,
       "ratio"},
  };
}

}  // namespace perfbench
