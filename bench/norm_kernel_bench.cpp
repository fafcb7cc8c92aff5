// Per-kernel ns/element across d in {768, 2048, 4096, 8192}: every backend's
// kernels plus the seed's scalar two-pass path (separate residual add, exact
// double-precision stats, temp normalize buffer, separate affine pass) as the
// pre-kernel-layer baseline. The JSON report is the anchor recorded in
// bench/kernel_baseline.json; --min-speedup gates CI on the fused vectorized
// residual_add_rmsnorm_rows kernel (one row of d=4096) staying ahead of the
// seed path. The report also carries linear GMAC/s (input-major weights, at
// a prefill block and at the decode shapes the serving benchmark's two
// models run), softmax / SiLU / GELU ns/element and causal attention
// ns/query row per backend; the run fails if any backend's linear, softmax,
// SiLU, GELU or causal attention output differs from the scalar reference by
// a single bit. Every per-backend figure interleaves its timed loops
// round-robin across the backends.
//
//   ./build/bench/norm_kernel_bench --json=bench/kernel_baseline.json
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json_lite.hpp"
#include "common/rng.hpp"
#include "kernels/kernels.hpp"
#include "mem/topology.hpp"
#include "numerics/formats.hpp"

using namespace haan;

namespace {

/// Nominal bytes moved per element by each measured op (float = 4 B per
/// touched stream), so ns/element converts to an effective bandwidth:
/// GB/s = bytes_per_element / ns_per_element. "Nominal" counts the streams
/// the op's contract touches, not cache-line traffic.
constexpr double kStatsBytes = 4.0;              // read z
constexpr double kResidualAddStatsBytes = 12.0;  // read h + r, write h
constexpr double kNormalizeAffineBytes = 16.0;   // read z + alpha + beta, write out
constexpr double kQuantizeBytes = 8.0;           // read + write in place
/// Fused residual+RMSNorm: add pass (12) + normalize pass (16).
constexpr double kFusedRmsBytes = 28.0;
/// LayerNorm adds the centered second-moment re-read of h.
constexpr double kFusedLayerBytes = 32.0;

double gbps(double bytes_per_element, double ns_per_element) {
  return ns_per_element > 0.0 ? bytes_per_element / ns_per_element : 0.0;
}

double g_sink = 0.0;  // defeats dead-code elimination across measurements

void sink(double v) {
  g_sink += v;
  asm volatile("" : : "r,m"(g_sink) : "memory");
}

/// Timed loops per measurement. One loop swings 1.5-3x between runs on a
/// shared host (preemption, frequency changes); the fastest of several is the
/// least-disturbed estimate of the op's own cost.
constexpr int kTimingRepeats = 5;

/// ns per element of each op in `ops` (one per backend, typically).
/// Calibrates each op's iteration count so one loop takes ~target_ms, then
/// runs kTimingRepeats loops of every op round-robin and keeps each op's
/// minimum (its calibrating loop counts as its first). Interleaving spreads
/// every op's repeats over the whole measurement, so a disturbance that lasts
/// several loops slows one repeat of each op instead of every repeat of one.
std::vector<double> time_ns_per_element(
    std::span<const std::function<void()>> ops, std::size_t d,
    double target_ms) {
  using Clock = std::chrono::steady_clock;
  const auto loop_ns = [](const std::function<void()>& op, std::size_t iters) {
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) op();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - begin)
            .count());
  };
  std::vector<std::size_t> iters(ops.size(), 1);
  std::vector<double> best_ns(ops.size());
  for (std::size_t k = 0; k < ops.size(); ++k) {
    ops[k]();  // warm up caches and code
    best_ns[k] = loop_ns(ops[k], iters[k]);
    while (best_ns[k] < target_ms * 1e6 && iters[k] < (1u << 24)) {
      const double scale =
          best_ns[k] > 0.0 ? (target_ms * 1.2e6) / best_ns[k] : 16.0;
      iters[k] = static_cast<std::size_t>(static_cast<double>(iters[k]) *
                                          std::max(2.0, scale));
      best_ns[k] = loop_ns(ops[k], iters[k]);
    }
  }
  for (int repeat = 1; repeat < kTimingRepeats; ++repeat) {
    for (std::size_t k = 0; k < ops.size(); ++k) {
      best_ns[k] = std::min(best_ns[k], loop_ns(ops[k], iters[k]));
    }
  }
  for (std::size_t k = 0; k < ops.size(); ++k) {
    best_ns[k] /= static_cast<double>(iters[k]) * static_cast<double>(d);
  }
  return best_ns;
}

double time_ns_per_element(const std::function<void()>& op, std::size_t d,
                           double target_ms) {
  return time_ns_per_element(std::span(&op, 1), d, target_ms).front();
}

/// The seed's pre-kernel-layer residual + norm sequence, verbatim: one add
/// pass, exact_stats (sum/sum_sq pass + centered two-pass variance), a temp
/// normalized buffer, and a separate affine pass.
void seed_residual_norm(std::vector<float>& h, const std::vector<float>& r,
                        const std::vector<float>& alpha,
                        const std::vector<float>& beta, std::vector<float>& out,
                        bool layernorm, double eps) {
  const std::size_t n = h.size();
  for (std::size_t i = 0; i < n; ++i) h[i] += r[i];
  double sum = 0.0, sum_sq = 0.0;
  for (const float v : h) {
    sum += v;
    sum_sq += static_cast<double>(v) * v;
  }
  const double dn = static_cast<double>(n);
  const double mean = sum / dn;
  double acc = 0.0;
  for (const float v : h) {
    const double dv = v - mean;
    acc += dv * dv;
  }
  const double variance = acc / dn;
  const double rms = std::sqrt(sum_sq / dn);
  double isd;
  double shift;
  if (layernorm) {
    isd = 1.0 / std::sqrt(variance + eps);
    shift = mean;
  } else {
    isd = 1.0 / std::sqrt(rms * rms + eps);
    shift = 0.0;
  }
  std::vector<float> normalized(n);
  for (std::size_t i = 0; i < n; ++i) {
    normalized[i] = static_cast<float>((h[i] - shift) * isd);
  }
  for (std::size_t i = 0; i < n; ++i) {
    float v = normalized[i];
    v *= alpha[i];
    v += beta[i];
    out[i] = v;
  }
}

struct Workspace {
  std::vector<float> h, residual, alpha, beta, out, quant;

  explicit Workspace(std::size_t d) : h(d), residual(d), alpha(d), beta(d), out(d), quant(d) {
    common::Rng rng(d);
    rng.fill_gaussian(h, 0.2, 1.5);
    rng.fill_gaussian(residual, 0.0, 0.02);  // keeps repeated adds bounded
    rng.fill_gaussian(alpha, 1.0, 0.1);
    rng.fill_gaussian(beta, 0.0, 0.2);
    rng.fill_gaussian(quant, 0.0, 2.0);
  }
};

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli("normalization kernel microbenchmark");
  cli.add_flag("target-ms", "25", "per-measurement timed-loop budget, ms");
  cli.add_flag("min-speedup", "0",
               "fail unless fused residual_add_rmsnorm_rows on one row of "
               "d=4096 beats the seed scalar path by this factor (0 disables)");
  cli.add_flag("json", "", "write the report as JSON to this path");
  if (!cli.parse(argc, argv)) return cli.error() ? 1 : 0;

  const double target_ms = cli.get_double("target-ms");
  const double min_speedup = cli.get_double("min-speedup");
  const std::vector<std::size_t> dims = {768, 2048, 4096, 8192};
  constexpr double kEps = 1e-5;

  std::printf("=== norm_kernel_bench — active dispatch: %s ===\n",
              kernels::active_name());
  std::printf("topology: %s%s\n", mem::topology().describe().c_str(),
              mem::topology().discovered() ? "" : " (sysfs fallback)");

  const std::vector<const kernels::KernelTable*> tables =
      kernels::supported_kernels();
  common::Json::Array results;
  double rmsnorm_speedup_4096 = 0.0;
  for (const std::size_t d : dims) {
    Workspace ws(d);
    common::Json::Object per_backend;

    // Seed reference: the pre-kernel-layer five-pass scalar path.
    common::Json::Object seed_ref;
    seed_ref["residual_add_rmsnorm"] = time_ns_per_element(
        [&] {
          seed_residual_norm(ws.h, ws.residual, ws.alpha, ws.beta, ws.out,
                             /*layernorm=*/false, kEps);
          sink(ws.out[0]);
        },
        d, target_ms);
    seed_ref["residual_add_layernorm"] = time_ns_per_element(
        [&] {
          seed_residual_norm(ws.h, ws.residual, ws.alpha, ws.beta, ws.out,
                             /*layernorm=*/true, kEps);
          sink(ws.out[0]);
        },
        d, target_ms);
    per_backend["seed_ref"] = seed_ref;

    // Per-backend kernels, one op at a time with its loops interleaved
    // across the backends. The residual_add_* cells run the row-block
    // kernels on one row of d.
    kernels::RowNormWorkspace row_ws;
    struct NormOp {
      const char* name;
      double bytes_per_element;
      std::function<void(const kernels::KernelTable&)> run;
    };
    const NormOp norm_ops[] = {
        {"stats", kStatsBytes,
         [&](const kernels::KernelTable& t) {
           sink(t.stats(ws.h.data(), d).sum_sq);
         }},
        {"residual_add_stats", kResidualAddStatsBytes,
         [&](const kernels::KernelTable& t) {
           kernels::SumStats sums;
           t.residual_add_stats_rows(ws.h.data(), ws.residual.data(), 1, d, d,
                                     &sums);
           sink(sums.sum_sq);
         }},
        {"normalize_affine", kNormalizeAffineBytes,
         [&](const kernels::KernelTable& t) {
           t.normalize_affine(ws.h.data(), d, 0.01, 0.66, ws.alpha.data(),
                              ws.beta.data(), ws.out.data());
           sink(ws.out[0]);
         }},
        {"quantize_int8", kQuantizeBytes,
         [&](const kernels::KernelTable& t) {
           t.quantize_dequantize(ws.quant.data(), d,
                                 numerics::NumericFormat::kINT8, 0.05f);
           sink(ws.quant[0]);
         }},
        {"quantize_fp16", kQuantizeBytes,
         [&](const kernels::KernelTable& t) {
           t.quantize_dequantize(ws.quant.data(), d,
                                 numerics::NumericFormat::kFP16, 1.0f);
           sink(ws.quant[0]);
         }},
        {"residual_add_rmsnorm", kFusedRmsBytes,
         [&](const kernels::KernelTable& t) {
           kernels::residual_add_rmsnorm_rows(t, 1, ws.h, ws.residual,
                                              ws.alpha, ws.beta, ws.out, kEps,
                                              row_ws);
           sink(ws.out[0]);
         }},
        {"residual_add_layernorm", kFusedLayerBytes,
         [&](const kernels::KernelTable& t) {
           kernels::residual_add_layernorm_rows(t, 1, ws.h, ws.residual,
                                                ws.alpha, ws.beta, ws.out,
                                                kEps, row_ws);
           sink(ws.out[0]);
         }},
    };
    std::vector<common::Json::Object> table_ops(tables.size());
    double active_fused_rmsnorm = 0.0;
    for (const NormOp& op : norm_ops) {
      std::vector<std::function<void()>> runs;
      for (const kernels::KernelTable* table : tables) {
        runs.push_back([&op, table] { op.run(*table); });
      }
      const std::vector<double> ns = time_ns_per_element(runs, d, target_ms);
      for (std::size_t t = 0; t < tables.size(); ++t) {
        table_ops[t][op.name] = ns[t];
        table_ops[t][std::string(op.name) + "_gbps"] =
            gbps(op.bytes_per_element, ns[t]);
        if (std::string(op.name) == "residual_add_rmsnorm" &&
            std::string(tables[t]->name) == kernels::active_name()) {
          active_fused_rmsnorm = ns[t];
        }
      }
    }
    for (std::size_t t = 0; t < tables.size(); ++t) {
      per_backend[tables[t]->name] = table_ops[t];
    }

    common::Json::Object row;
    row["d"] = d;
    row["ns_per_element"] = per_backend;
    const double seed_rms = per_backend["seed_ref"]
                                .find("residual_add_rmsnorm")
                                ->as_number();
    const double speedup =
        active_fused_rmsnorm > 0.0 ? seed_rms / active_fused_rmsnorm : 0.0;
    row["speedup_fused_rmsnorm_vs_seed"] = speedup;
    if (d == 4096) rmsnorm_speedup_4096 = speedup;
    results.push_back(row);

    std::printf(
        "d=%5zu  seed %6.3f ns/el  fused(%s) %6.3f ns/el (%6.2f GB/s)  "
        "speedup %5.2fx\n",
        d, seed_rms, kernels::active_name(), active_fused_rmsnorm,
        gbps(kFusedRmsBytes, active_fused_rmsnorm), speedup);
  }

  // --- Matmul kernel: linear GMAC/s per backend at a prefill-sized block
  // and at the decode shapes the serving benchmark's workloads run (one
  // chat_decode row through the GPT-2 surrogate's MLP, two prefill_offline
  // decode rows through the LLaMA surrogate's), with the weight input-major
  // (in x out) as the model stores it. Gated on cross-backend bit identity
  // only (the exact-order contract in kernels.hpp), never on time: shared CI
  // runners are too noisy for a timing gate. Runs after the timed norm
  // sections so its long FMA bursts cannot shift their clocks. -------------
  struct LinearShape {
    std::size_t n, in, out;
  };
  const LinearShape linear_shapes[] = {
      {288, 64, 170}, {1, 96, 384}, {1, 384, 96}, {2, 64, 170}, {2, 170, 64}};
  common::Json::Array linear_results;
  bool linear_identical = true;
  std::printf("--- linear (y = x W^T, W^T stored), GMAC/s per backend ---\n");
  for (const LinearShape& shape : linear_shapes) {
    const std::size_t macs = shape.n * shape.in * shape.out;
    std::vector<float> x(shape.n * shape.in), wt(shape.in * shape.out);
    common::Rng rng(macs);
    rng.fill_gaussian(x, 0.0, 1.0);
    rng.fill_gaussian(wt, 0.0, 0.1);
    std::vector<float> y(shape.n * shape.out), reference;
    std::vector<std::function<void()>> runs;
    for (const kernels::KernelTable* table : tables) {
      const auto run = [&, table] {
        table->linear(x.data(), shape.n, shape.in, wt.data(), shape.out,
                      nullptr, y.data());
        sink(y[0]);
      };
      run();
      if (reference.empty()) {
        reference = y;
      } else if (std::memcmp(reference.data(), y.data(),
                             y.size() * sizeof(float)) != 0) {
        std::fprintf(stderr, "FAIL: %s linear differs from %s at n=%zu in=%zu "
                     "out=%zu\n", table->name, tables.front()->name, shape.n,
                     shape.in, shape.out);
        linear_identical = false;
      }
      runs.push_back(run);
    }
    // ns per multiply-accumulate -> GMAC/s.
    const std::vector<double> ns = time_ns_per_element(runs, macs, target_ms);
    common::Json::Object gmac_s;
    std::printf("n=%3zu in=%3zu out=%3zu ", shape.n, shape.in, shape.out);
    for (std::size_t t = 0; t < tables.size(); ++t) {
      gmac_s[tables[t]->name] = 1.0 / ns[t];
      std::printf(" %s %7.2f", tables[t]->name, 1.0 / ns[t]);
    }
    std::printf(" GMAC/s\n");
    common::Json::Object entry;
    entry["n"] = shape.n;
    entry["in"] = shape.in;
    entry["out"] = shape.out;
    entry["gmac_s"] = gmac_s;
    linear_results.push_back(entry);
  }

  // --- Exp and tanh kernels: softmax over one attention row at ctx 72 and
  // 144 (the prefill_offline surrogate's mean context and twice it), SiLU
  // over a 288 x 170 MLP gate block, and GELU over one and twenty rows of
  // chat_decode's d_ff = 384 MLP (a decode step and a chat prompt), ns/element
  // per backend. Softmax and SiLU run in place on the previous call's
  // output; GELU first restores its input (a plain copy, timed with it),
  // since repeated GELU drives a row towards zeros and saturated values. The
  // bit-identity check uses the first call, on the original input. Gated on
  // identity only. ---------------------------------------------------------
  struct ExpShape {
    const char* kernel;
    std::size_t rows, cols;
  };
  const ExpShape exp_shapes[] = {{"softmax", 1, 72}, {"softmax", 1, 144},
                                 {"silu", 288, 170}, {"gelu", 1, 384},
                                 {"gelu", 20, 384}};
  common::Json::Array exp_results;
  bool exp_identical = true;
  std::printf("--- softmax / silu / gelu, ns/element per backend ---\n");
  for (const ExpShape& shape : exp_shapes) {
    const std::size_t n = shape.rows * shape.cols;
    std::vector<float> input(n);
    common::Rng rng(n);
    rng.fill_gaussian(input, 0.0, 3.0);
    const bool softmax = std::strcmp(shape.kernel, "softmax") == 0;
    const bool silu = std::strcmp(shape.kernel, "silu") == 0;
    // One working buffer per backend, so each backend's timed calls chain on
    // its own previous output.
    std::vector<std::vector<float>> work(tables.size(), input);
    std::vector<float> reference;
    std::vector<std::function<void()>> runs;
    for (std::size_t t = 0; t < tables.size(); ++t) {
      const kernels::KernelTable* table = tables[t];
      std::vector<float>& v = work[t];
      const auto run = [&v, &input, table, softmax, silu, n] {
        if (softmax) {
          table->softmax(v.data(), n);
        } else if (silu) {
          table->silu(v.data(), n);
        } else {
          std::copy(input.begin(), input.end(), v.begin());
          table->gelu(v.data(), n);
        }
        sink(v[0]);
      };
      run();
      if (reference.empty()) {
        reference = v;
      } else if (std::memcmp(reference.data(), v.data(), n * sizeof(float)) !=
                 0) {
        std::fprintf(stderr, "FAIL: %s %s differs from %s at %zux%zu\n",
                     table->name, shape.kernel, tables.front()->name,
                     shape.rows, shape.cols);
        exp_identical = false;
      }
      runs.push_back(run);
    }
    const std::vector<double> ns = time_ns_per_element(runs, n, target_ms);
    common::Json::Object ns_per_element;
    std::printf("%-7s %3zux%3zu ", shape.kernel, shape.rows, shape.cols);
    for (std::size_t t = 0; t < tables.size(); ++t) {
      ns_per_element[tables[t]->name] = ns[t];
      std::printf(" %s %6.3f", tables[t]->name, ns[t]);
    }
    std::printf(" ns/el\n");
    common::Json::Object entry;
    entry["kernel"] = shape.kernel;
    entry["rows"] = shape.rows;
    entry["cols"] = shape.cols;
    entry["ns_per_element"] = ns_per_element;
    exp_results.push_back(entry);
  }

  // --- Causal attention: one head's causal_attention call at the perfbench
  // shapes — a prefill_offline prompt block (d_head 16, 144 rows from
  // position 0), a chat_decode step (d_head 24, one row at position 64) and
  // a prefill_offline decode step (d_head 16, one row at position 144) — in
  // ns per query row per backend, K given transposed as a KvCache holds it.
  // Gated on identity only. ---------------------------------------------------
  struct AttentionShape {
    std::size_t d_head, rows, start;
  };
  const AttentionShape attention_shapes[] = {
      {16, 144, 0}, {24, 1, 64}, {16, 1, 144}};
  common::Json::Array attention_results;
  bool attention_identical = true;
  std::printf("--- causal_attention, ns per query row per backend ---\n");
  for (const AttentionShape& shape : attention_shapes) {
    const std::size_t keys = shape.start + shape.rows;
    std::vector<float> q(shape.rows * shape.d_head);
    std::vector<float> kt(shape.d_head * keys), v(keys * shape.d_head);
    common::Rng rng(keys * shape.d_head);
    rng.fill_gaussian(q, 0.0, 1.0);
    rng.fill_gaussian(kt, 0.0, 1.0);
    rng.fill_gaussian(v, 0.0, 1.0);
    const float scale = 1.0f / std::sqrt(static_cast<float>(shape.d_head));
    std::vector<float> out(q.size()), reference;
    std::vector<std::function<void()>> runs;
    for (const kernels::KernelTable* table : tables) {
      const auto run = [&, table] {
        table->causal_attention(q.data(), shape.rows, kt.data(), keys,
                                v.data(), shape.d_head, shape.d_head,
                                shape.start, scale, out.data());
        sink(out[0]);
      };
      run();
      if (reference.empty()) {
        reference = out;
      } else if (std::memcmp(reference.data(), out.data(),
                             out.size() * sizeof(float)) != 0) {
        std::fprintf(stderr, "FAIL: %s causal_attention differs from %s at "
                     "d_head=%zu rows=%zu start=%zu\n", table->name,
                     tables.front()->name, shape.d_head, shape.rows,
                     shape.start);
        attention_identical = false;
      }
      runs.push_back(run);
    }
    const std::vector<double> ns =
        time_ns_per_element(runs, shape.rows, target_ms);
    common::Json::Object ns_per_row;
    std::printf("d_head=%3zu rows=%3zu start=%3zu ", shape.d_head, shape.rows,
                shape.start);
    for (std::size_t t = 0; t < tables.size(); ++t) {
      ns_per_row[tables[t]->name] = ns[t];
      std::printf(" %s %8.1f", tables[t]->name, ns[t]);
    }
    std::printf(" ns/row\n");
    common::Json::Object entry;
    entry["d_head"] = shape.d_head;
    entry["rows"] = shape.rows;
    entry["start_position"] = shape.start;
    entry["ns_per_row"] = ns_per_row;
    attention_results.push_back(entry);
  }

  common::Json::Object doc;
  doc["bench"] = "norm_kernel_bench";
  doc["active_kernel"] = kernels::active_name();
  doc["topology"] = mem::topology().describe();
  doc["numa_nodes"] = mem::topology().nodes();
  doc["timing_repeats"] = kTimingRepeats;
  common::Json::Array dims_json;
  for (const std::size_t d : dims) dims_json.push_back(d);
  doc["dims"] = dims_json;
  doc["results"] = results;
  doc["linear"] = linear_results;
  doc["linear_bit_identical"] = linear_identical;
  doc["exp_kernels"] = exp_results;
  doc["exp_kernels_bit_identical"] = exp_identical;
  doc["attention_kernels"] = attention_results;
  doc["attention_kernels_bit_identical"] = attention_identical;

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    if (!common::write_file(json_path, common::Json(doc).dump_pretty() + "\n")) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("json report: %s\n", json_path.c_str());
  }

  if (min_speedup > 0.0 && rmsnorm_speedup_4096 < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: fused residual_add_rmsnorm_rows at d=4096 is %.2fx the "
                 "seed path (< required %.2fx)\n",
                 rmsnorm_speedup_4096, min_speedup);
    return 1;
  }
  if (!linear_identical || !exp_identical || !attention_identical) return 1;
  return 0;
}
