// Reference (exact) normalization kernels, double-precision internals.
// Everything HAAN approximates is measured against these.
#pragma once

#include <span>

#include "kernels/kernels.hpp"

namespace haan::tensor {

/// Exact statistics of a vector, double accumulation.
struct VectorStats {
  double mean = 0.0;
  double variance = 0.0;  ///< population variance (divide by N)
  double rms = 0.0;       ///< sqrt(mean of squares)
};

/// Computes mean/variance/rms of `z` exactly. The table-explicit overloads
/// run one backend through every path (per-row and row-block alike) so
/// in-process bit-identity comparisons see a single consistent reduction
/// order; the plain overloads use kernels::active().
VectorStats exact_stats(std::span<const float> z);
VectorStats exact_stats(const kernels::KernelTable& k, std::span<const float> z);

/// LayerNorm per the paper's equation (1):
///   s = alpha * (z - mu) / sigma + beta
/// `eps` is added to the variance before the square root, matching framework
/// semantics. alpha/beta must match z's length (or be empty for identity).
void layernorm(std::span<const float> z, std::span<const float> alpha,
               std::span<const float> beta, std::span<float> out, double eps = 1e-5);
void layernorm(const kernels::KernelTable& k, std::span<const float> z,
               std::span<const float> alpha, std::span<const float> beta,
               std::span<float> out, double eps = 1e-5);

/// RMSNorm per the paper's equation (2): s = alpha * z / rms + beta.
void rmsnorm(std::span<const float> z, std::span<const float> alpha,
             std::span<const float> beta, std::span<float> out, double eps = 1e-5);
void rmsnorm(const kernels::KernelTable& k, std::span<const float> z,
             std::span<const float> alpha, std::span<const float> beta,
             std::span<float> out, double eps = 1e-5);

/// LayerNorm where 1/sigma is supplied externally (e.g. the HAAN predictor):
///   s = alpha * (z - mu) * isd + beta.
void layernorm_with_isd(std::span<const float> z, double mean, double isd,
                        std::span<const float> alpha, std::span<const float> beta,
                        std::span<float> out);
void layernorm_with_isd(const kernels::KernelTable& k, std::span<const float> z,
                        double mean, double isd, std::span<const float> alpha,
                        std::span<const float> beta, std::span<float> out);

/// RMSNorm with an externally supplied 1/rms factor.
void rmsnorm_with_isd(std::span<const float> z, double isd,
                      std::span<const float> alpha, std::span<const float> beta,
                      std::span<float> out);
void rmsnorm_with_isd(const kernels::KernelTable& k, std::span<const float> z,
                      double isd, std::span<const float> alpha,
                      std::span<const float> beta, std::span<float> out);

/// Row-block references: the exact per-row norm applied to each row of a
/// contiguous row-major (rows x d) block, d = x.size() / rows. These loop the
/// per-row reference verbatim — the seed semantics every batched
/// normalization path is tested against.
void layernorm_rows(std::size_t rows, std::span<const float> x,
                    std::span<const float> alpha, std::span<const float> beta,
                    std::span<float> out, double eps = 1e-5);
void rmsnorm_rows(std::size_t rows, std::span<const float> x,
                  std::span<const float> alpha, std::span<const float> beta,
                  std::span<float> out, double eps = 1e-5);

}  // namespace haan::tensor
