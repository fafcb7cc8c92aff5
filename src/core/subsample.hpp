// Subsampled input statistics (paper §III-C, eq. 4): estimate mean and ISD
// from the first Nsub elements of the input vector — the accelerator simply
// stops reading memory entries early (Fig 7), so "first Nsub" is the exact
// hardware semantics, not a simplification.
#pragma once

#include <cstddef>
#include <span>

#include "kernels/kernels.hpp"
#include "model/config.hpp"

namespace haan::model {}  // forward-include convenience

namespace haan::core {

/// Statistics estimated from a subsampled prefix.
struct SubsampledStats {
  double mean = 0.0;           ///< prefix mean (LayerNorm re-centering)
  double second_moment = 0.0;  ///< prefix variance (LN) or mean-square (RMS)
  double isd = 0.0;            ///< 1/sqrt(second_moment + eps)
  std::size_t used = 0;        ///< number of elements actually used
};

/// Estimates normalization statistics from the first `nsub` elements of `z`
/// (nsub = 0 or >= z.size() uses the full vector). For LayerNorm the second
/// moment is the prefix variance; for RMSNorm it is the prefix mean square
/// (paper eq. 4).
SubsampledStats subsampled_stats(std::span<const float> z, std::size_t nsub,
                                 model::NormKind kind, double eps = 1e-5);

/// Same, over an explicit kernel table — providers pass kernels::active() so
/// the subsampled reduction matches their row-block paths bit for bit.
SubsampledStats subsampled_stats(const kernels::KernelTable& k,
                                 std::span<const float> z, std::size_t nsub,
                                 model::NormKind kind, double eps = 1e-5);

/// Relative ISD estimation error of the subsampled estimate vs. the full
/// vector, |est - exact| / exact. Used by tests and the Nsub ablation.
double subsample_isd_rel_error(std::span<const float> z, std::size_t nsub,
                               model::NormKind kind, double eps = 1e-5);

}  // namespace haan::core
