// Internal backend registry. Each SIMD backend translation unit is compiled
// with its ISA flags and exports a raw table getter; the dispatcher (compiled
// with baseline flags) performs the CPU feature check before ever calling
// into backend code.
#pragma once

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

/// The scalar backend's exp entries (the seed loops): the NEON table's own,
/// and what the dispatcher swaps into a SIMD table whose expf model disagrees
/// with this process's libm.
void exp_scalar(const float* x, std::size_t n, float* out);
void softmax_scalar(float* row, std::size_t n);
void silu_scalar(float* v, std::size_t n);

/// The NEON (AArch64) table. Null when this build does not target AArch64.
const KernelTable* neon_table();

}  // namespace haan::kernels::detail
