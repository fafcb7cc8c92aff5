// The per-row causal attention driver, backend-internal: the scalar
// causal_attention (the spec every table is tested against) and the SIMD
// tables' few-row path. Each backend instantiates it with its own row
// kernels, which have internal linkage, so every instantiation is its own
// and is compiled with that backend's ISA flags.
#pragma once

#include <cstddef>
#include <vector>

namespace haan::kernels::detail {

/// Query rows [0, rows) of causal_attention (kernels.hpp), one at a time,
/// reading the caller's transposed keys (kt is d_head x ldk, key j in
/// column j) in place:
///   Scores(q_i, d_head, kt, ldk, ctx, scale, scores)
///   Softmax(scores, ctx)
///   Context(scores, ctx, v, ld, d_head, out_i)   (writes all d_head outputs)
/// scores is the caller's reusable buffer.
template <auto Scores, auto Softmax, auto Context>
void attention_rows(const float* q, std::size_t rows, const float* kt,
                    std::size_t ldk, const float* v, std::size_t ld,
                    std::size_t d_head, std::size_t start_position,
                    float scale, std::vector<float>& scores, float* out) {
  scores.resize(start_position + rows);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t ctx = start_position + i + 1;
    Scores(q + i * ld, d_head, kt, ldk, ctx, scale, scores.data());
    Softmax(scores.data(), ctx);
    Context(scores.data(), ctx, v, ld, d_head, out + i * ld);
  }
}

}  // namespace haan::kernels::detail
