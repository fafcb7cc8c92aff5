// The per-row causal attention driver, backend-internal: the scalar
// causal_attention (the spec every table is tested against) and the SIMD
// tables' few-row path. Each backend instantiates it with its own row
// kernels, which have internal linkage, so every instantiation is its own
// and is compiled with that backend's ISA flags.
#pragma once

#include <cstddef>
#include <vector>

namespace haan::kernels::detail {

/// Query rows [0, rows) of causal_attention (kernels.hpp), one at a time:
/// K transposed into kt (d_head x keys, key j in column j), then per row
///   Scores(q_i, d_head, kt, keys, ctx, scale, scores)
///   Softmax(scores, ctx)
///   Context(scores, ctx, v, ld, d_head, out_i)   (writes all d_head outputs)
/// kt and scores are the caller's reusable buffers.
template <auto Scores, auto Softmax, auto Context>
void attention_rows(const float* q, std::size_t rows, const float* k,
                    const float* v, std::size_t ld, std::size_t d_head,
                    std::size_t start_position, float scale,
                    std::vector<float>& kt, std::vector<float>& scores,
                    float* out) {
  const std::size_t keys = start_position + rows;
  kt.resize(d_head * keys);
  scores.resize(keys);
  for (std::size_t j = 0; j < keys; ++j) {
    for (std::size_t c = 0; c < d_head; ++c) kt[c * keys + j] = k[j * ld + c];
  }
  for (std::size_t i = 0; i < rows; ++i) {
    const std::size_t ctx = start_position + i + 1;
    Scores(q + i * ld, d_head, kt.data(), keys, ctx, scale, scores.data());
    Softmax(scores.data(), ctx);
    Context(scores.data(), ctx, v, ld, d_head, out + i * ld);
  }
}

}  // namespace haan::kernels::detail
