#include "model/norm_provider.hpp"

#include "common/assert.hpp"
#include "kernels/kernels.hpp"

namespace haan::model {

std::size_t NormProvider::check_row_block(std::size_t rows, std::size_t numel,
                                          std::span<const float> alpha,
                                          std::span<const float> beta,
                                          std::size_t out_size) {
  HAAN_EXPECTS(rows > 0);
  HAAN_EXPECTS(numel > 0 && numel % rows == 0);
  const std::size_t d = numel / rows;
  HAAN_EXPECTS(out_size == numel);
  HAAN_EXPECTS(alpha.empty() || alpha.size() == d);
  HAAN_EXPECTS(beta.empty() || beta.size() == d);
  return d;
}

void NormProvider::residual_add_normalize_rows(
    std::size_t layer_index, std::size_t start_position, NormKind kind,
    std::size_t rows, std::span<float> h, std::span<const float> residual,
    std::span<const float> alpha, std::span<const float> beta,
    std::span<float> out) {
  // Unfused: one block-wide add, then the provider's row-block normalize.
  kernels::residual_add(h, residual);
  normalize_rows(layer_index, start_position, kind, rows, h, alpha, beta, out);
}

void NormProvider::normalize(std::size_t layer_index, std::size_t position,
                             NormKind kind, std::span<const float> z,
                             std::span<const float> alpha,
                             std::span<const float> beta, std::span<float> out) {
  normalize_rows(layer_index, position, kind, /*rows=*/1, z, alpha, beta, out);
}

void NormProvider::residual_add_normalize(std::size_t layer_index,
                                          std::size_t position, NormKind kind,
                                          std::span<float> h,
                                          std::span<const float> residual,
                                          std::span<const float> alpha,
                                          std::span<const float> beta,
                                          std::span<float> out) {
  residual_add_normalize_rows(layer_index, position, kind, /*rows=*/1, h,
                              residual, alpha, beta, out);
}

ExactNormProvider::ExactNormProvider(double eps, std::size_t norm_threads)
    : eps_(eps),
      pool_(norm_threads == 0 ? threads_per_worker(1) : norm_threads) {}

template <class ChunkFn>
void ExactNormProvider::for_row_chunks(std::size_t rows, std::size_t d,
                                       ChunkFn&& fn) {
  if (chunk_workspaces_.size() + 1 < pool_.threads()) {
    chunk_workspaces_.resize(pool_.threads() - 1);
  }
  // The row kernels are row-wise; chunks get disjoint row ranges and private
  // workspaces (chunk 0 reuses the member scratch), so the result is
  // bit-identical for any chunk count.
  pool_.for_rows(rows, min_partition_rows(d),
                 [&](std::size_t chunk, std::size_t r0, std::size_t nr) {
    fn(chunk == 0 ? workspace_ : chunk_workspaces_[chunk - 1], r0, nr);
  });
}

void ExactNormProvider::normalize_rows(std::size_t /*layer_index*/,
                                       std::size_t /*start_position*/,
                                       NormKind kind, std::size_t rows,
                                       std::span<const float> x,
                                       std::span<const float> alpha,
                                       std::span<const float> beta,
                                       std::span<float> out) {
  const std::size_t d = check_row_block(rows, x.size(), alpha, beta, out.size());
  const kernels::KernelTable& k = kernels::active();
  for_row_chunks(rows, d, [&](kernels::RowNormWorkspace& ws, std::size_t r0,
                              std::size_t nr) {
    const std::span<const float> xs = x.subspan(r0 * d, nr * d);
    const std::span<float> os = out.subspan(r0 * d, nr * d);
    if (kind == NormKind::kLayerNorm) {
      kernels::layernorm_rows(k, nr, xs, alpha, beta, os, eps_, ws);
    } else {
      kernels::rmsnorm_rows(k, nr, xs, alpha, beta, os, eps_, ws);
    }
  });
}

void ExactNormProvider::residual_add_normalize_rows(
    std::size_t /*layer_index*/, std::size_t /*start_position*/, NormKind kind,
    std::size_t rows, std::span<float> h, std::span<const float> residual,
    std::span<const float> alpha, std::span<const float> beta,
    std::span<float> out) {
  const std::size_t d = check_row_block(rows, h.size(), alpha, beta, out.size());
  HAAN_EXPECTS(residual.size() == h.size());
  const kernels::KernelTable& k = kernels::active();
  for_row_chunks(rows, d, [&](kernels::RowNormWorkspace& ws, std::size_t r0,
                              std::size_t nr) {
    const std::span<float> hs = h.subspan(r0 * d, nr * d);
    const std::span<const float> rs = residual.subspan(r0 * d, nr * d);
    const std::span<float> os = out.subspan(r0 * d, nr * d);
    if (kind == NormKind::kLayerNorm) {
      kernels::residual_add_layernorm_rows(k, nr, hs, rs, alpha, beta, os,
                                           eps_, ws);
    } else {
      kernels::residual_add_rmsnorm_rows(k, nr, hs, rs, alpha, beta, os, eps_,
                                         ws);
    }
  });
}

}  // namespace haan::model
