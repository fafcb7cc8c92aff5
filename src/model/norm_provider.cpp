#include "model/norm_provider.hpp"

#include <cmath>

#include "common/assert.hpp"
#include "kernels/kernels.hpp"
#include "tensor/norm_ref.hpp"

namespace haan::model {

namespace {

using kernels::data_or_null;

}  // namespace

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

void NormProvider::residual_add_normalize(std::size_t layer_index,
                                          std::size_t position, NormKind kind,
                                          std::span<float> h,
                                          std::span<const float> residual,
                                          std::span<const float> alpha,
                                          std::span<const float> beta,
                                          std::span<float> out) {
  // Unfused fallback for providers without a fused statistics pass.
  kernels::residual_add(h, residual);
  normalize(layer_index, position, kind, h, alpha, beta, out);
}

void NormProvider::normalize_rows(std::size_t layer_index,
                                  std::size_t start_position, NormKind kind,
                                  std::size_t rows, std::span<const float> x,
                                  std::span<const float> alpha,
                                  std::span<const float> beta,
                                  std::span<float> out) {
  // Per-row fallback for providers without a batched path.
  const std::size_t d = check_row_block(rows, x.size(), alpha, beta, out.size());
  for (std::size_t r = 0; r < rows; ++r) {
    normalize(layer_index, start_position + r, kind, x.subspan(r * d, d), alpha,
              beta, out.subspan(r * d, d));
  }
}

void NormProvider::residual_add_normalize_rows(
    std::size_t layer_index, std::size_t start_position, NormKind kind,
    std::size_t rows, std::span<float> h, std::span<const float> residual,
    std::span<const float> alpha, std::span<const float> beta,
    std::span<float> out) {
  const std::size_t d = check_row_block(rows, h.size(), alpha, beta, out.size());
  HAAN_EXPECTS(residual.size() == h.size());
  for (std::size_t r = 0; r < rows; ++r) {
    residual_add_normalize(layer_index, start_position + r, kind,
                           h.subspan(r * d, d), residual.subspan(r * d, d),
                           alpha, beta, out.subspan(r * d, d));
  }
}

ExactNormProvider::ExactNormProvider(double eps, std::size_t norm_threads)
    : eps_(eps),
      pool_(norm_threads) {}

void ExactNormProvider::normalize(std::size_t /*layer_index*/, std::size_t /*position*/,
                                  NormKind kind, std::span<const float> z,
                                  std::span<const float> alpha,
                                  std::span<const float> beta, std::span<float> out) {
  const kernels::KernelTable& k = kernels::active();
  if (kind == NormKind::kLayerNorm) {
    tensor::layernorm(k, z, alpha, beta, out, eps_);
  } else {
    tensor::rmsnorm(k, z, alpha, beta, out, eps_);
  }
}

void ExactNormProvider::residual_add_normalize(
    std::size_t /*layer_index*/, std::size_t /*position*/, NormKind kind,
    std::span<float> h, std::span<const float> residual,
    std::span<const float> alpha, std::span<const float> beta,
    std::span<float> out) {
  const kernels::KernelTable& k = kernels::active();
  if (kind == NormKind::kLayerNorm) {
    kernels::residual_add_layernorm(k, h, residual, alpha, beta, out, eps_);
  } else {
    kernels::residual_add_rmsnorm(k, h, residual, alpha, beta, out, eps_);
  }
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
  const double n = static_cast<double>(d);
  workspace_.stats.resize(rows);
  workspace_.mean.resize(rows);
  workspace_.isd.resize(rows);
  // Rows are independent once eps/backend are resolved: each chunk runs the
  // full stats -> variance -> normalize pipeline over its own contiguous row
  // range, writing disjoint workspace and output slices — bit-identical for
  // any chunk count (every kernel is row-wise).
  pool_.for_rows(rows, min_partition_rows(d),
                 [&](std::size_t /*chunk*/, std::size_t r0, std::size_t nr) {
    const float* xr = x.data() + r0 * d;
    kernels::SumStats* stats = workspace_.stats.data() + r0;
    double* mean = workspace_.mean.data() + r0;
    double* isd = workspace_.isd.data() + r0;
    k.stats_rows(xr, nr, d, d, stats);
    if (kind == NormKind::kLayerNorm) {
      for (std::size_t r = 0; r < nr; ++r) mean[r] = stats[r].sum / n;
      // Two-pass per-row variance, same rounding as tensor::exact_stats.
      k.centered_sum_sq_rows(xr, nr, d, d, mean, isd);
      for (std::size_t r = 0; r < nr; ++r) {
        isd[r] = 1.0 / std::sqrt(isd[r] / n + eps_);
      }
    } else {
      for (std::size_t r = 0; r < nr; ++r) {
        // rms is materialized before being squared again, like tensor::rmsnorm.
        const double rms = std::sqrt(stats[r].sum_sq / n);
        mean[r] = 0.0;
        isd[r] = 1.0 / std::sqrt(rms * rms + eps_);
      }
    }
    k.normalize_affine_rows(xr, nr, d, mean, isd, data_or_null(alpha),
                            data_or_null(beta), out.data() + r0 * d,
                            /*saturate=*/false);
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
  if (chunk_workspaces_.size() + 1 < pool_.threads()) {
    chunk_workspaces_.resize(pool_.threads() - 1);
  }
  // The fused helpers are row-wise; chunks get disjoint row subspans and
  // private workspaces (chunk 0 reuses the member scratch).
  pool_.for_rows(rows, min_partition_rows(d),
                 [&](std::size_t chunk, std::size_t r0, std::size_t nr) {
    kernels::RowNormWorkspace& ws =
        chunk == 0 ? workspace_ : chunk_workspaces_[chunk - 1];
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
