// Per-kernel ns/element across d in {768, 2048, 4096, 8192}: every backend's
// kernels plus the seed's scalar two-pass path (separate residual add, exact
// double-precision stats, temp normalize buffer, separate affine pass) as the
// pre-kernel-layer baseline. The JSON report is the anchor recorded in
// bench/kernel_baseline.json; --min-speedup gates CI on the fused vectorized
// residual_add_rmsnorm at d=4096 staying ahead of the seed path. The report
// also carries linear GMAC/s, softmax / SiLU ns/element and causal attention
// ns/query row per backend; the run fails if any backend's linear, softmax,
// SiLU or causal attention output differs from the scalar reference by a
// single bit.
//
//   ./build/bench/norm_kernel_bench --json=bench/kernel_baseline.json
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/json_lite.hpp"
#include "common/rng.hpp"
#include "core/haan_norm.hpp"
#include "kernels/kernels.hpp"
#include "mem/topology.hpp"
#include "model/norm_provider.hpp"
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

/// Calibrates an iteration count so one loop takes ~target_ms, then reports
/// the minimum ns per element over kTimingRepeats loops of that count (the
/// calibrating loop counts as the first).
double time_ns_per_element(const std::function<void()>& op, std::size_t d,
                           double target_ms) {
  using Clock = std::chrono::steady_clock;
  const auto loop_ns = [&op](std::size_t iters) {
    const Clock::time_point begin = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) op();
    return static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - begin)
            .count());
  };
  op();  // warm up caches and code
  std::size_t iters = 1;
  double best_ns = loop_ns(iters);
  while (best_ns < target_ms * 1e6 && iters < (1u << 24)) {
    const double scale = best_ns > 0.0 ? (target_ms * 1.2e6) / best_ns : 16.0;
    iters = static_cast<std::size_t>(static_cast<double>(iters) *
                                     std::max(2.0, scale));
    best_ns = loop_ns(iters);
  }
  for (int repeat = 1; repeat < kTimingRepeats; ++repeat) {
    best_ns = std::min(best_ns, loop_ns(iters));
  }
  return best_ns / static_cast<double>(iters) / static_cast<double>(d);
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

/// A (rows x d) block workspace for the row-block measurements.
struct RowWorkspace {
  std::size_t rows, d;
  std::vector<float> h, residual, alpha, beta, out;

  RowWorkspace(std::size_t rows_, std::size_t d_)
      : rows(rows_), d(d_), h(rows_ * d_), residual(rows_ * d_), alpha(d_),
        beta(d_), out(rows_ * d_) {
    common::Rng rng(rows_ * 31 + d_);
    rng.fill_gaussian(h, 0.2, 1.5);
    rng.fill_gaussian(residual, 0.0, 0.02);
    rng.fill_gaussian(alpha, 1.0, 0.1);
    rng.fill_gaussian(beta, 0.0, 0.2);
  }

  std::span<float> row(std::vector<float>& v, std::size_t r) {
    return std::span(v).subspan(r * d, d);
  }
};

/// The provider-seam comparison this PR is about: one virtual fused call per
/// token row (the seed execution model) vs one batched row-block call per
/// norm layer. `haan-full` semantics (full-vector stats, FP32 operands) keep
/// both paths deterministic and predictor-free.
struct RowBlockTimings {
  double per_row_ns = 0.0;
  double rowblock_ns = 0.0;

  double speedup() const {
    return rowblock_ns > 0.0 ? per_row_ns / rowblock_ns : 0.0;
  }
};

RowBlockTimings time_provider_rowblock(model::NormProvider& provider,
                                       RowWorkspace& ws, double target_ms) {
  using model::NormKind;
  const std::size_t rows = ws.rows;
  RowBlockTimings t;
  t.per_row_ns = time_ns_per_element(
      [&] {
        for (std::size_t r = 0; r < rows; ++r) {
          provider.residual_add_normalize(0, r, NormKind::kRMSNorm,
                                          ws.row(ws.h, r), ws.row(ws.residual, r),
                                          ws.alpha, ws.beta, ws.row(ws.out, r));
        }
        sink(ws.out[0]);
      },
      rows * ws.d, target_ms);
  t.rowblock_ns = time_ns_per_element(
      [&] {
        provider.residual_add_normalize_rows(0, 0, NormKind::kRMSNorm, rows,
                                             ws.h, ws.residual, ws.alpha,
                                             ws.beta, ws.out);
        sink(ws.out[0]);
      },
      rows * ws.d, target_ms);
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli("normalization kernel microbenchmark");
  cli.add_flag("target-ms", "25", "per-measurement timed-loop budget, ms");
  cli.add_flag("min-speedup", "0",
               "fail unless fused residual_add_rmsnorm at d=4096 beats the "
               "seed scalar path by this factor (0 disables)");
  cli.add_flag("min-rowblock-speedup", "0",
               "fail unless the batched row-block provider path at d=4096, "
               "rows=64 beats the per-row provider path by this factor "
               "(0 disables)");
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

    double active_fused_rmsnorm = 0.0;
    for (const kernels::KernelTable* table : kernels::supported_kernels()) {
      common::Json::Object ops;
      const auto record = [&ops](const char* name, double bytes_per_element,
                                 double ns) {
        ops[name] = ns;
        ops[std::string(name) + "_gbps"] = gbps(bytes_per_element, ns);
        return ns;
      };
      record("stats", kStatsBytes,
             time_ns_per_element(
                 [&] { sink(table->stats(ws.h.data(), d).sum_sq); }, d,
                 target_ms));
      record("residual_add_stats", kResidualAddStatsBytes,
             time_ns_per_element(
                 [&] {
                   sink(table
                            ->residual_add_stats(ws.h.data(),
                                                 ws.residual.data(), d)
                            .sum_sq);
                 },
                 d, target_ms));
      record("normalize_affine", kNormalizeAffineBytes,
             time_ns_per_element(
                 [&] {
                   table->normalize_affine(ws.h.data(), d, 0.01, 0.66,
                                           ws.alpha.data(), ws.beta.data(),
                                           ws.out.data());
                   sink(ws.out[0]);
                 },
                 d, target_ms));
      record("quantize_int8", kQuantizeBytes,
             time_ns_per_element(
                 [&] {
                   table->quantize_dequantize(ws.quant.data(), d,
                                              numerics::NumericFormat::kINT8,
                                              0.05f);
                   sink(ws.quant[0]);
                 },
                 d, target_ms));
      record("quantize_fp16", kQuantizeBytes,
             time_ns_per_element(
                 [&] {
                   table->quantize_dequantize(ws.quant.data(), d,
                                              numerics::NumericFormat::kFP16,
                                              1.0f);
                   sink(ws.quant[0]);
                 },
                 d, target_ms));
      const double fused_rms =
          record("residual_add_rmsnorm", kFusedRmsBytes,
                 time_ns_per_element(
                     [&] {
                       kernels::residual_add_rmsnorm(*table, ws.h, ws.residual,
                                                     ws.alpha, ws.beta, ws.out,
                                                     kEps);
                       sink(ws.out[0]);
                     },
                     d, target_ms));
      record("residual_add_layernorm", kFusedLayerBytes,
             time_ns_per_element(
                 [&] {
                   kernels::residual_add_layernorm(*table, ws.h, ws.residual,
                                                   ws.alpha, ws.beta, ws.out,
                                                   kEps);
                   sink(ws.out[0]);
                 },
                 d, target_ms));
      per_backend[table->name] = ops;
      if (std::string(table->name) == kernels::active_name()) {
        active_fused_rmsnorm = fused_rms;
      }
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

  // --- Row-block sweep: batched provider calls vs the per-row seam --------
  const double min_rowblock_speedup = cli.get_double("min-rowblock-speedup");
  const std::vector<std::size_t> row_counts = {8, 64, 256};
  common::Json::Array rowblock_results;
  double rowblock_speedup_4096x64 = 0.0;
  std::printf("--- row-block provider path vs per-row provider path ---\n");
  for (const std::size_t d : dims) {
    for (const std::size_t rows : row_counts) {
      RowWorkspace ws(rows, d);
      // haan-full semantics: full-vector statistics, FP32 operands, fast
      // inverse sqrt; plan disabled so both paths are predictor-free.
      core::HaanNormProvider haan(core::HaanConfig{});
      const RowBlockTimings haan_t = time_provider_rowblock(haan, ws, target_ms);
      model::ExactNormProvider exact;
      const RowBlockTimings exact_t =
          time_provider_rowblock(exact, ws, target_ms);

      common::Json::Object entry;
      entry["d"] = d;
      entry["rows"] = rows;
      entry["haan_per_row_ns"] = haan_t.per_row_ns;
      entry["haan_rowblock_ns"] = haan_t.rowblock_ns;
      entry["haan_speedup"] = haan_t.speedup();
      entry["exact_per_row_ns"] = exact_t.per_row_ns;
      entry["exact_rowblock_ns"] = exact_t.rowblock_ns;
      entry["exact_speedup"] = exact_t.speedup();
      entry["haan_rowblock_gbps"] = gbps(kFusedRmsBytes, haan_t.rowblock_ns);
      entry["exact_rowblock_gbps"] = gbps(kFusedRmsBytes, exact_t.rowblock_ns);
      rowblock_results.push_back(entry);
      if (d == 4096 && rows == 64) {
        rowblock_speedup_4096x64 = haan_t.speedup();
      }
      std::printf(
          "d=%5zu rows=%4zu  haan %6.3f -> %6.3f ns/el (%5.2fx)  exact %6.3f "
          "-> %6.3f ns/el (%5.2fx)\n",
          d, rows, haan_t.per_row_ns, haan_t.rowblock_ns, haan_t.speedup(),
          exact_t.per_row_ns, exact_t.rowblock_ns, exact_t.speedup());
    }
  }

  // --- Matmul kernel: linear GMAC/s per backend at a prefill-sized and a
  // decode-sized shape. Gated on cross-backend bit identity only (the
  // exact-order contract in kernels.hpp), never on time: shared CI runners
  // are too noisy for a timing gate. Runs after the timed norm sections so
  // its long FMA bursts cannot shift their clocks. --------------------------
  struct LinearShape {
    std::size_t n, in, out;
  };
  const LinearShape linear_shapes[] = {{288, 64, 170}, {1, 96, 384}};
  common::Json::Array linear_results;
  bool linear_identical = true;
  std::printf("--- linear (y = x W^T), GMAC/s per backend ---\n");
  for (const LinearShape& shape : linear_shapes) {
    const std::size_t macs = shape.n * shape.in * shape.out;
    std::vector<float> x(shape.n * shape.in), w(shape.out * shape.in);
    common::Rng rng(macs);
    rng.fill_gaussian(x, 0.0, 1.0);
    rng.fill_gaussian(w, 0.0, 0.1);
    std::vector<float> y(shape.n * shape.out), reference;
    common::Json::Object gmac_s;
    std::printf("n=%3zu in=%3zu out=%3zu ", shape.n, shape.in, shape.out);
    for (const kernels::KernelTable* table : kernels::supported_kernels()) {
      const auto run = [&] {
        table->linear(x.data(), shape.n, shape.in, w.data(), shape.out,
                      nullptr, y.data());
        sink(y[0]);
      };
      run();
      if (reference.empty()) {
        reference = y;
      } else if (std::memcmp(reference.data(), y.data(),
                             y.size() * sizeof(float)) != 0) {
        std::fprintf(stderr, "FAIL: %s linear differs from %s at n=%zu in=%zu "
                     "out=%zu\n", table->name,
                     kernels::supported_kernels().front()->name, shape.n,
                     shape.in, shape.out);
        linear_identical = false;
      }
      // ns per multiply-accumulate -> GMAC/s.
      const double gmacs = 1.0 / time_ns_per_element(run, macs, target_ms);
      gmac_s[table->name] = gmacs;
      std::printf(" %s %7.2f", table->name, gmacs);
    }
    std::printf(" GMAC/s\n");
    common::Json::Object entry;
    entry["n"] = shape.n;
    entry["in"] = shape.in;
    entry["out"] = shape.out;
    entry["gmac_s"] = gmac_s;
    linear_results.push_back(entry);
  }

  // --- Exp kernels: softmax over one attention row at ctx 72 and 144 (the
  // prefill_offline surrogate's mean context and twice it) and SiLU over a
  // 288 x 170 MLP gate block, ns/element per backend. Each timed call runs in
  // place on the previous call's output; the bit-identity check uses the
  // first call, on the original input. Gated on identity only. -------------
  struct ExpShape {
    const char* kernel;
    std::size_t rows, cols;
  };
  const ExpShape exp_shapes[] = {
      {"softmax", 1, 72}, {"softmax", 1, 144}, {"silu", 288, 170}};
  common::Json::Array exp_results;
  bool exp_identical = true;
  std::printf("--- softmax / silu, ns/element per backend ---\n");
  for (const ExpShape& shape : exp_shapes) {
    const std::size_t n = shape.rows * shape.cols;
    std::vector<float> input(n);
    common::Rng rng(n);
    rng.fill_gaussian(input, 0.0, 3.0);
    std::vector<float> work, reference;
    common::Json::Object ns_per_element;
    std::printf("%-7s %3zux%3zu ", shape.kernel, shape.rows, shape.cols);
    for (const kernels::KernelTable* table : kernels::supported_kernels()) {
      const bool softmax = std::strcmp(shape.kernel, "softmax") == 0;
      const auto run = [&] {
        if (softmax) {
          table->softmax(work.data(), n);
        } else {
          table->silu(work.data(), n);
        }
        sink(work[0]);
      };
      work = input;
      run();
      if (reference.empty()) {
        reference = work;
      } else if (std::memcmp(reference.data(), work.data(),
                             n * sizeof(float)) != 0) {
        std::fprintf(stderr, "FAIL: %s %s differs from %s at %zux%zu\n",
                     table->name, shape.kernel,
                     kernels::supported_kernels().front()->name, shape.rows,
                     shape.cols);
        exp_identical = false;
      }
      const double ns = time_ns_per_element(run, n, target_ms);
      ns_per_element[table->name] = ns;
      std::printf(" %s %6.3f", table->name, ns);
    }
    std::printf(" ns/el\n");
    common::Json::Object entry;
    entry["kernel"] = shape.kernel;
    entry["rows"] = shape.rows;
    entry["cols"] = shape.cols;
    entry["ns_per_element"] = ns_per_element;
    exp_results.push_back(entry);
  }

  // --- Causal attention: one head's causal_attention call at the two
  // perfbench shapes — a prefill_offline prompt block (d_head 16, 144 rows
  // from position 0) and a chat_decode step (d_head 24, one row at position
  // 64) — in ns per query row per backend. Gated on identity only. ---------
  struct AttentionShape {
    std::size_t d_head, rows, start;
  };
  const AttentionShape attention_shapes[] = {{16, 144, 0}, {24, 1, 64}};
  common::Json::Array attention_results;
  bool attention_identical = true;
  std::printf("--- causal_attention, ns per query row per backend ---\n");
  for (const AttentionShape& shape : attention_shapes) {
    const std::size_t keys = shape.start + shape.rows;
    std::vector<float> q(shape.rows * shape.d_head);
    std::vector<float> k(keys * shape.d_head), v(keys * shape.d_head);
    common::Rng rng(keys * shape.d_head);
    rng.fill_gaussian(q, 0.0, 1.0);
    rng.fill_gaussian(k, 0.0, 1.0);
    rng.fill_gaussian(v, 0.0, 1.0);
    const float scale = 1.0f / std::sqrt(static_cast<float>(shape.d_head));
    std::vector<float> out(q.size()), reference;
    common::Json::Object ns_per_row;
    std::printf("d_head=%3zu rows=%3zu start=%3zu ", shape.d_head, shape.rows,
                shape.start);
    for (const kernels::KernelTable* table : kernels::supported_kernels()) {
      const auto run = [&] {
        table->causal_attention(q.data(), shape.rows, k.data(), v.data(),
                                shape.d_head, shape.d_head, shape.start, scale,
                                out.data());
        sink(out[0]);
      };
      run();
      if (reference.empty()) {
        reference = out;
      } else if (std::memcmp(reference.data(), out.data(),
                             out.size() * sizeof(float)) != 0) {
        std::fprintf(stderr, "FAIL: %s causal_attention differs from %s at "
                     "d_head=%zu rows=%zu start=%zu\n", table->name,
                     kernels::supported_kernels().front()->name, shape.d_head,
                     shape.rows, shape.start);
        attention_identical = false;
      }
      const double ns = time_ns_per_element(run, shape.rows, target_ms);
      ns_per_row[table->name] = ns;
      std::printf(" %s %8.1f", table->name, ns);
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
  common::Json::Array rows_json;
  for (const std::size_t r : row_counts) rows_json.push_back(r);
  doc["rowblock_rows"] = rows_json;
  doc["rowblock_results"] = rowblock_results;
  doc["rowblock_speedup_d4096_rows64"] = rowblock_speedup_4096x64;
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
                 "FAIL: fused residual_add_rmsnorm at d=4096 is %.2fx the seed "
                 "path (< required %.2fx)\n",
                 rmsnorm_speedup_4096, min_speedup);
    return 1;
  }
  if (min_rowblock_speedup > 0.0 &&
      rowblock_speedup_4096x64 < min_rowblock_speedup) {
    std::fprintf(stderr,
                 "FAIL: row-block provider path at d=4096, rows=64 is %.2fx "
                 "the per-row path (< required %.2fx)\n",
                 rowblock_speedup_4096x64, min_rowblock_speedup);
    return 1;
  }
  if (!linear_identical || !exp_identical || !attention_identical) return 1;
  return 0;
}
