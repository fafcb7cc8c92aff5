// Dispatcher and fused span-level entry points. This translation unit is
// compiled with baseline flags only: the CPU feature check happens here,
// before any backend code (compiled with ISA flags) can execute.
#include "kernels/kernels.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "kernels/backends.hpp"
#include "kernels/expf_model.hpp"

namespace haan::kernels {
namespace {

bool cpu_supports_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("f16c");
#else
  return false;
#endif
}

bool cpu_supports_avx512() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") &&
         __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512vl");
#else
  return false;
#endif
}

/// Inputs on which a SIMD table's exp must match this process's libm: the two
/// where glibc's non-FMA expf differs from the FMA model, ordinary values
/// across the range, subnormal results, and the libm-fallback edges.
constexpr float kExpProbes[] = {
    detail::kExpProbeNonFma[0],
    detail::kExpProbeNonFma[1],
    0.0f,
    -0.0f,
    1.0f,
    -1.0f,
    0x1.8p-9f,
    -3.1415927f,
    10.75f,
    -17.25f,
    42.0f,
    -87.3f,
    -87.9f,
    87.9f,
    88.0f,
    -88.0f,
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    std::numeric_limits<float>::quiet_NaN(),
};

/// std::exp through a volatile read, so the compiler cannot fold the call on
/// a constant probe (its folding is correctly rounded; libm's expf is not).
float libm_exp(float x) {
  const volatile float input = x;
  return std::exp(input);
}

bool exp_matches_libm(const KernelTable& table) {
  float out[std::size(kExpProbes)];
  table.exp(kExpProbes, std::size(kExpProbes), out);
  for (std::size_t i = 0; i < std::size(kExpProbes); ++i) {
    if (std::bit_cast<std::uint32_t>(out[i]) !=
        std::bit_cast<std::uint32_t>(libm_exp(kExpProbes[i]))) {
      return false;
    }
  }
  return true;
}

/// `table` itself when its exp matches libm on the probes; otherwise `patched`,
/// a copy carrying the scalar exp / softmax / silu loops.
const KernelTable* with_checked_exp(const KernelTable* table,
                                    KernelTable& patched) {
  if (table == nullptr || exp_matches_libm(*table)) return table;
  HAAN_LOG_WARN_C("kernels")
      << table->name << ": the SIMD expf model disagrees with this libm's "
      << "expf; exp, softmax and silu run the scalar loops";
  patched = *table;
  patched.exp = detail::exp_scalar;
  patched.softmax = detail::softmax_scalar;
  patched.silu = detail::silu_scalar;
  return &patched;
}

/// The AVX-512 table when both the build and the CPU can run it (the TU
/// compiles to a null stub when the compiler lacks the ISA flags), checked
/// once against libm's expf.
const KernelTable* runnable_avx512_table() {
  static KernelTable patched{};
  static const KernelTable* const table = with_checked_exp(
      cpu_supports_avx512() ? detail::avx512_table() : nullptr, patched);
  return table;
}

const KernelTable* runnable_avx2_table() {
  static KernelTable patched{};
  static const KernelTable* const table = with_checked_exp(
      cpu_supports_avx2() ? detail::avx2_table() : nullptr, patched);
  return table;
}

const KernelTable* best_simd_table() {
  if (const KernelTable* avx512 = runnable_avx512_table()) return avx512;
  if (const KernelTable* avx2 = runnable_avx2_table()) return avx2;
  return detail::neon_table();  // null off-aarch64
}

const KernelTable& dispatch_once() {
  const KernelTable* chosen = nullptr;
  if (force_scalar_requested()) {
    chosen = &scalar_kernels();
  } else if (const KernelTable* simd = best_simd_table()) {
    chosen = simd;
  } else {
    chosen = &scalar_kernels();
  }
  HAAN_LOG_INFO_C("kernels")
      << "dispatch: " << chosen->name << " backend selected"
      << (force_scalar_requested() ? " (HAAN_FORCE_SCALAR)" : "");
  return *chosen;
}

/// Shared by both fused entry points: shape checks + the pass-1 residual
/// add + sums.
SumStats add_and_sum(const KernelTable& kernels, std::span<float> h,
                     std::span<const float> residual,
                     std::span<const float> alpha, std::span<const float> beta,
                     std::span<const float> out) {
  HAAN_EXPECTS(!h.empty());
  HAAN_EXPECTS(out.size() == h.size());
  HAAN_EXPECTS(alpha.empty() || alpha.size() == h.size());
  HAAN_EXPECTS(beta.empty() || beta.size() == h.size());
  if (residual.empty()) return kernels.stats(h.data(), h.size());
  HAAN_EXPECTS(residual.size() == h.size());
  return kernels.residual_add_stats(h.data(), residual.data(), h.size());
}

}  // namespace

bool force_scalar_requested() {
  const char* env = std::getenv("HAAN_FORCE_SCALAR");
  if (env == nullptr || env[0] == '\0') return false;
  return !(env[0] == '0' && env[1] == '\0');
}

const KernelTable& active() {
  static const KernelTable& table = dispatch_once();
  return table;
}

const char* active_name() { return active().name; }

std::vector<const KernelTable*> supported_kernels() {
  std::vector<const KernelTable*> tables{&scalar_kernels()};
  // Both x86 families when runnable (not just the widest): parity tests keep
  // covering AVX2 on AVX-512 machines.
  if (const KernelTable* avx2 = runnable_avx2_table()) tables.push_back(avx2);
  if (const KernelTable* avx512 = runnable_avx512_table()) {
    tables.push_back(avx512);
  }
  if (const KernelTable* neon = detail::neon_table()) tables.push_back(neon);
  return tables;
}

void residual_add_rmsnorm(const KernelTable& kernels, std::span<float> h,
                          std::span<const float> residual,
                          std::span<const float> alpha,
                          std::span<const float> beta, std::span<float> out,
                          double eps) {
  const SumStats sums = add_and_sum(kernels, h, residual, alpha, beta, out);
  const double n = static_cast<double>(h.size());
  // Matches tensor::rmsnorm: rms is materialized before being squared again,
  // so the scalar path rounds identically to the seed reference.
  const double rms = std::sqrt(sums.sum_sq / n);
  const double isd = 1.0 / std::sqrt(rms * rms + eps);
  kernels.normalize_affine(h.data(), h.size(), 0.0, isd, data_or_null(alpha),
                           data_or_null(beta), out.data());
}

void residual_add_rmsnorm(std::span<float> h, std::span<const float> residual,
                          std::span<const float> alpha,
                          std::span<const float> beta, std::span<float> out,
                          double eps) {
  residual_add_rmsnorm(active(), h, residual, alpha, beta, out, eps);
}

void residual_add_layernorm(const KernelTable& kernels, std::span<float> h,
                            std::span<const float> residual,
                            std::span<const float> alpha,
                            std::span<const float> beta, std::span<float> out,
                            double eps) {
  const SumStats sums = add_and_sum(kernels, h, residual, alpha, beta, out);
  const double n = static_cast<double>(h.size());
  const double mean = sums.sum / n;
  // Two-pass variance, like tensor::exact_stats, to avoid E[x^2] - E[x]^2
  // cancellation in the reference path.
  const double variance =
      kernels.centered_sum_sq(h.data(), h.size(), mean) / n;
  const double isd = 1.0 / std::sqrt(variance + eps);
  kernels.normalize_affine(h.data(), h.size(), mean, isd, data_or_null(alpha),
                           data_or_null(beta), out.data());
}

void residual_add_layernorm(std::span<float> h, std::span<const float> residual,
                            std::span<const float> alpha,
                            std::span<const float> beta, std::span<float> out,
                            double eps) {
  residual_add_layernorm(active(), h, residual, alpha, beta, out, eps);
}

namespace {

/// Shared by the row-block fused entry points: shape checks, scratch sizing,
/// and the pass-1 residual add + per-row sums (full-row statistics).
void add_and_sum_rows(const KernelTable& kernels, std::size_t rows,
                      std::span<float> h, std::span<const float> residual,
                      std::span<const float> alpha, std::span<const float> beta,
                      std::span<const float> out, RowNormWorkspace& ws) {
  HAAN_EXPECTS(rows > 0);
  HAAN_EXPECTS(!h.empty() && h.size() % rows == 0);
  const std::size_t d = h.size() / rows;
  HAAN_EXPECTS(out.size() == h.size());
  HAAN_EXPECTS(alpha.empty() || alpha.size() == d);
  HAAN_EXPECTS(beta.empty() || beta.size() == d);
  ws.stats.resize(rows);
  ws.mean.resize(rows);
  ws.isd.resize(rows);
  if (residual.empty()) {
    kernels.stats_rows(h.data(), rows, d, d, ws.stats.data());
    return;
  }
  HAAN_EXPECTS(residual.size() == h.size());
  kernels.residual_add_stats_rows(h.data(), residual.data(), rows, d, d,
                                  ws.stats.data());
}

}  // namespace

void residual_add_rmsnorm_rows(const KernelTable& kernels, std::size_t rows,
                               std::span<float> h,
                               std::span<const float> residual,
                               std::span<const float> alpha,
                               std::span<const float> beta, std::span<float> out,
                               double eps, RowNormWorkspace& ws) {
  add_and_sum_rows(kernels, rows, h, residual, alpha, beta, out, ws);
  const std::size_t d = h.size() / rows;
  const double n = static_cast<double>(d);
  for (std::size_t r = 0; r < rows; ++r) {
    // Same rounding points as the per-row entry point: rms is materialized
    // before being squared again.
    const double rms = std::sqrt(ws.stats[r].sum_sq / n);
    ws.mean[r] = 0.0;
    ws.isd[r] = 1.0 / std::sqrt(rms * rms + eps);
  }
  kernels.normalize_affine_rows(h.data(), rows, d, ws.mean.data(),
                                ws.isd.data(), data_or_null(alpha),
                                data_or_null(beta), out.data(),
                                /*saturate=*/false);
}

void residual_add_rmsnorm_rows(std::size_t rows, std::span<float> h,
                               std::span<const float> residual,
                               std::span<const float> alpha,
                               std::span<const float> beta, std::span<float> out,
                               double eps, RowNormWorkspace& ws) {
  residual_add_rmsnorm_rows(active(), rows, h, residual, alpha, beta, out, eps,
                            ws);
}

void residual_add_layernorm_rows(const KernelTable& kernels, std::size_t rows,
                                 std::span<float> h,
                                 std::span<const float> residual,
                                 std::span<const float> alpha,
                                 std::span<const float> beta,
                                 std::span<float> out, double eps,
                                 RowNormWorkspace& ws) {
  add_and_sum_rows(kernels, rows, h, residual, alpha, beta, out, ws);
  const std::size_t d = h.size() / rows;
  const double n = static_cast<double>(d);
  for (std::size_t r = 0; r < rows; ++r) {
    ws.mean[r] = ws.stats[r].sum / n;
  }
  // Two-pass variance per row, reusing ws.isd as the centered-moment scratch.
  kernels.centered_sum_sq_rows(h.data(), rows, d, d, ws.mean.data(),
                               ws.isd.data());
  for (std::size_t r = 0; r < rows; ++r) {
    const double variance = ws.isd[r] / n;
    ws.isd[r] = 1.0 / std::sqrt(variance + eps);
  }
  kernels.normalize_affine_rows(h.data(), rows, d, ws.mean.data(),
                                ws.isd.data(), data_or_null(alpha),
                                data_or_null(beta), out.data(),
                                /*saturate=*/false);
}

void residual_add_layernorm_rows(std::size_t rows, std::span<float> h,
                                 std::span<const float> residual,
                                 std::span<const float> alpha,
                                 std::span<const float> beta,
                                 std::span<float> out, double eps,
                                 RowNormWorkspace& ws) {
  residual_add_layernorm_rows(active(), rows, h, residual, alpha, beta, out,
                              eps, ws);
}

SumStats stats(std::span<const float> z) {
  HAAN_EXPECTS(!z.empty());
  return active().stats(z.data(), z.size());
}

void residual_add(std::span<float> h, std::span<const float> residual) {
  HAAN_EXPECTS(residual.size() == h.size());
  if (h.empty()) return;
  active().residual_add(h.data(), residual.data(), h.size());
}

void quantize_dequantize_span(std::span<float> values,
                              numerics::NumericFormat format, float scale) {
  quantize_dequantize_span(active(), values, format, scale);
}

void quantize_dequantize_span(const KernelTable& kernels,
                              std::span<float> values,
                              numerics::NumericFormat format, float scale) {
  if (values.empty() || format == numerics::NumericFormat::kFP32) return;
  if (format == numerics::NumericFormat::kINT8) HAAN_EXPECTS(scale > 0.0f);
  kernels.quantize_dequantize(values.data(), values.size(), format, scale);
}

}  // namespace haan::kernels
