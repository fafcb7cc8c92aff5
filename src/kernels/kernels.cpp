// Dispatcher and span-level row-block norms. This translation unit is
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
#include "kernels/tanhf_model.hpp"

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

/// Inputs on which a SIMD table's gelu must match the scalar loop, whose
/// tanh is this process's libm: the fdlibm probes, zeros, a subnormal, the
/// |inner| >= 22 saturation, v^3 overflow, inf and NaN.
constexpr float kGeluProbes[] = {
    detail::kTanhProbeFdlibm[0],
    detail::kTanhProbeFdlibm[1],
    detail::kTanhProbeFdlibm[2],
    detail::kTanhProbeFdlibm[3],
    detail::kTanhProbeFdlibm[4],
    0.0f,
    -0.0f,
    0x1p-140f,
    0.3f,
    -2.5f,
    30.0f,
    -30.0f,
    1e13f,
    -1e13f,
    std::numeric_limits<float>::infinity(),
    -std::numeric_limits<float>::infinity(),
    std::numeric_limits<float>::quiet_NaN(),
};

bool gelu_matches_libm(const KernelTable& table) {
  float expected[std::size(kGeluProbes)];
  float out[std::size(kGeluProbes)];
  for (std::size_t i = 0; i < std::size(kGeluProbes); ++i) {
    // A volatile read, so the compiler cannot fold std::tanh on a probe.
    const volatile float input = kGeluProbes[i];
    expected[i] = input;
    out[i] = input;
  }
  detail::gelu_scalar(expected, std::size(kGeluProbes));
  table.gelu(out, std::size(kGeluProbes));
  for (std::size_t i = 0; i < std::size(kGeluProbes); ++i) {
    if (std::bit_cast<std::uint32_t>(out[i]) !=
        std::bit_cast<std::uint32_t>(expected[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

namespace detail {

const KernelTable* with_checked_libm(const KernelTable* table,
                                     KernelTable& patched) {
  if (table == nullptr) return table;
  const bool exp_ok = exp_matches_libm(*table);
  const bool gelu_ok = gelu_matches_libm(*table);
  if (exp_ok && gelu_ok) return table;
  patched = *table;
  if (!exp_ok) {
    HAAN_LOG_WARN_C("kernels")
        << table->name << ": the SIMD expf model disagrees with this libm's "
        << "expf; exp, softmax, silu and causal_attention run the scalar loops";
    patched.exp = exp_scalar;
    patched.softmax = softmax_scalar;
    patched.silu = silu_scalar;
    patched.causal_attention = causal_attention_scalar;
  }
  if (!gelu_ok) {
    HAAN_LOG_WARN_C("kernels")
        << table->name << ": the SIMD tanhf model disagrees with this libm's "
        << "tanhf; gelu runs the scalar loop";
    patched.gelu = gelu_scalar;
  }
  return &patched;
}

}  // namespace detail

namespace {

/// The AVX-512 table when both the build and the CPU can run it (the TU
/// compiles to a null stub when the compiler lacks the ISA flags), checked
/// once against libm's expf and tanhf.
const KernelTable* runnable_avx512_table() {
  static KernelTable patched{};
  static const KernelTable* const table = detail::with_checked_libm(
      cpu_supports_avx512() ? detail::avx512_table() : nullptr, patched);
  return table;
}

const KernelTable* runnable_avx2_table() {
  static KernelTable patched{};
  static const KernelTable* const table = detail::with_checked_libm(
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

namespace {

/// Shared by the row-block norms: shape checks and scratch sizing. Returns d.
std::size_t prepare_rows(std::size_t rows, std::size_t numel,
                         std::span<const float> alpha,
                         std::span<const float> beta, std::size_t out_size,
                         RowNormWorkspace& ws) {
  HAAN_EXPECTS(rows > 0);
  HAAN_EXPECTS(numel > 0 && numel % rows == 0);
  const std::size_t d = numel / rows;
  HAAN_EXPECTS(out_size == numel);
  HAAN_EXPECTS(alpha.empty() || alpha.size() == d);
  HAAN_EXPECTS(beta.empty() || beta.size() == d);
  ws.stats.resize(rows);
  ws.mean.resize(rows);
  ws.isd.resize(rows);
  return d;
}

/// RMSNorm of `rows` rows of width d from their sums in ws.stats.
void rmsnorm_from_sums(const KernelTable& kernels, std::size_t rows,
                       std::size_t d, const float* x,
                       std::span<const float> alpha,
                       std::span<const float> beta, float* out, double eps,
                       RowNormWorkspace& ws) {
  const double n = static_cast<double>(d);
  for (std::size_t r = 0; r < rows; ++r) {
    // Matches tensor::rmsnorm: rms is materialized before being squared
    // again, so the scalar path rounds identically to the seed reference.
    const double rms = std::sqrt(ws.stats[r].sum_sq / n);
    ws.mean[r] = 0.0;
    ws.isd[r] = 1.0 / std::sqrt(rms * rms + eps);
  }
  kernels.normalize_affine_rows(x, rows, d, ws.mean.data(), ws.isd.data(),
                                data_or_null(alpha), data_or_null(beta), out,
                                /*saturate=*/false);
}

/// LayerNorm of `rows` rows of width d from their sums in ws.stats.
void layernorm_from_sums(const KernelTable& kernels, std::size_t rows,
                         std::size_t d, const float* x,
                         std::span<const float> alpha,
                         std::span<const float> beta, float* out, double eps,
                         RowNormWorkspace& ws) {
  const double n = static_cast<double>(d);
  for (std::size_t r = 0; r < rows; ++r) ws.mean[r] = ws.stats[r].sum / n;
  // Two-pass variance per row, like tensor::exact_stats, to avoid
  // E[x^2] - E[x]^2 cancellation; ws.isd holds the centered moment first.
  kernels.centered_sum_sq_rows(x, rows, d, d, ws.mean.data(), ws.isd.data());
  for (std::size_t r = 0; r < rows; ++r) {
    const double variance = ws.isd[r] / n;
    ws.isd[r] = 1.0 / std::sqrt(variance + eps);
  }
  kernels.normalize_affine_rows(x, rows, d, ws.mean.data(), ws.isd.data(),
                                data_or_null(alpha), data_or_null(beta), out,
                                /*saturate=*/false);
}

/// The residual add fused with the row sums (a plain stats pass when the
/// residual is empty). Returns d.
std::size_t add_and_sum_rows(const KernelTable& kernels, std::size_t rows,
                             std::span<float> h, std::span<const float> residual,
                             std::span<const float> alpha,
                             std::span<const float> beta,
                             std::span<const float> out, RowNormWorkspace& ws) {
  const std::size_t d =
      prepare_rows(rows, h.size(), alpha, beta, out.size(), ws);
  if (residual.empty()) {
    kernels.stats_rows(h.data(), rows, d, d, ws.stats.data());
  } else {
    HAAN_EXPECTS(residual.size() == h.size());
    kernels.residual_add_stats_rows(h.data(), residual.data(), rows, d, d,
                                    ws.stats.data());
  }
  return d;
}

}  // namespace

void rmsnorm_rows(const KernelTable& kernels, std::size_t rows,
                  std::span<const float> x, std::span<const float> alpha,
                  std::span<const float> beta, std::span<float> out,
                  double eps, RowNormWorkspace& ws) {
  const std::size_t d =
      prepare_rows(rows, x.size(), alpha, beta, out.size(), ws);
  kernels.stats_rows(x.data(), rows, d, d, ws.stats.data());
  rmsnorm_from_sums(kernels, rows, d, x.data(), alpha, beta, out.data(), eps,
                    ws);
}

void layernorm_rows(const KernelTable& kernels, std::size_t rows,
                    std::span<const float> x, std::span<const float> alpha,
                    std::span<const float> beta, std::span<float> out,
                    double eps, RowNormWorkspace& ws) {
  const std::size_t d =
      prepare_rows(rows, x.size(), alpha, beta, out.size(), ws);
  kernels.stats_rows(x.data(), rows, d, d, ws.stats.data());
  layernorm_from_sums(kernels, rows, d, x.data(), alpha, beta, out.data(), eps,
                      ws);
}

void residual_add_rmsnorm_rows(const KernelTable& kernels, std::size_t rows,
                               std::span<float> h,
                               std::span<const float> residual,
                               std::span<const float> alpha,
                               std::span<const float> beta, std::span<float> out,
                               double eps, RowNormWorkspace& ws) {
  const std::size_t d =
      add_and_sum_rows(kernels, rows, h, residual, alpha, beta, out, ws);
  rmsnorm_from_sums(kernels, rows, d, h.data(), alpha, beta, out.data(), eps,
                    ws);
}

void residual_add_layernorm_rows(const KernelTable& kernels, std::size_t rows,
                                 std::span<float> h,
                                 std::span<const float> residual,
                                 std::span<const float> alpha,
                                 std::span<const float> beta,
                                 std::span<float> out, double eps,
                                 RowNormWorkspace& ws) {
  const std::size_t d =
      add_and_sum_rows(kernels, rows, h, residual, alpha, beta, out, ws);
  layernorm_from_sums(kernels, rows, d, h.data(), alpha, beta, out.data(), eps,
                      ws);
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
