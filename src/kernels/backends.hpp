// Internal backend registry. Each SIMD backend translation unit is compiled
// with its ISA flags and exports a raw table getter; the dispatcher (compiled
// with baseline flags) performs the CPU feature check before ever calling
// into backend code.
#pragma once

#include <span>

#include "kernels/kernels.hpp"

namespace haan::kernels::detail {

/// The AVX2+FMA+F16C table. Null when this build does not target x86.
/// Callers must verify CPU support (see kernels.cpp) before using the table.
const KernelTable* avx2_table();

/// The AVX-512 (F+DQ+BW+VL) table: 16-wide lanes with masked tails, so prime
/// or odd row widths never fall back to scalar remainder loops. Null when the
/// build does not target x86 or the compiler cannot emit AVX-512 (the TU is
/// always compiled; CMake only adds the ISA flags when the compiler supports
/// them). Callers must verify CPU support before using the table.
const KernelTable* avx512_table();

/// Streaming-store ("-nt") and software-prefetch ("-pf", "-ntpf") variants of
/// a family's row-block kernels. Value-identical to the family's base table —
/// nontemporal stores change cache placement, prefetch changes latency, and
/// the arithmetic sequence is untouched — so they are safe autotuner
/// candidates under every bit-identity guarantee. Empty when the family is
/// unavailable in this build.
std::span<const KernelTable* const> avx2_variant_tables();
std::span<const KernelTable* const> avx512_variant_tables();

/// The scalar backend's matmul entries (the seed loops), shared with backends
/// that have no vector implementation of their own (NEON).
void linear_scalar(const float* x, std::size_t n, std::size_t in,
                   const float* w, std::size_t out, const float* bias,
                   float* y);
void attention_scores_scalar(const float* q, std::size_t d_head,
                             const float* kt, std::size_t ld, std::size_t ctx,
                             float scale, float* scores);
void attention_context_scalar(const float* p, std::size_t ctx, const float* v,
                              std::size_t ld, std::size_t d_head, float* out);

/// The NEON (AArch64) table. Null when this build does not target AArch64.
const KernelTable* neon_table();

}  // namespace haan::kernels::detail
