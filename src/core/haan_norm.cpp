#include "core/haan_norm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/assert.hpp"
#include "kernels/kernels.hpp"
#include "numerics/fast_math.hpp"

namespace haan::core {

HaanNormProvider::HaanNormProvider(HaanConfig config, std::size_t norm_threads)
    : config_(config),
      predictor_(config.plan, config.predictor_fp16),
      pool_(norm_threads == 0 ? model::threads_per_worker(1) : norm_threads) {}

void HaanNormProvider::begin_sequence() { predictor_.begin_sequence(); }

double HaanNormProvider::compute_isd(double second_moment) const {
  const double x = second_moment + config_.eps;
  if (!config_.use_fast_invsqrt) return 1.0 / std::sqrt(x);
  // The float cast of a tiny second moment (all-zero / constant / denormal-
  // scale activations with a small eps) can land in the denormal range or
  // round to zero, violating the bit hack's documented precondition (x > 0,
  // finite, *normal*). Clamp to the smallest normal float, like the hardware
  // square-root inverter's flush-to-smallest-input does.
  const float xf = std::max(static_cast<float>(x),
                            std::numeric_limits<float>::min());
  return static_cast<double>(numerics::fast_inv_sqrt(xf,
                                                     config_.newton_iterations));
}

void HaanNormProvider::normalize_rows(std::size_t layer_index,
                                      std::size_t start_position,
                                      model::NormKind kind, std::size_t rows,
                                      std::span<const float> x,
                                      std::span<const float> alpha,
                                      std::span<const float> beta,
                                      std::span<float> out) {
  const std::size_t d = check_row_block(rows, x.size(), alpha, beta, out.size());
  counters_.norm_calls += rows;
  ++counters_.batched_norm_calls;

  // Operand quantization: the datapath sees the quantized input in both the
  // statistics and the normalization path (paper §III-C / §IV-A).
  const float* src = x.data();
  if (config_.format != numerics::NumericFormat::kFP32) {
    buffer_.assign(x.begin(), x.end());
    quantize_rows(buffer_.data(), rows, d);
    src = buffer_.data();
  }
  // FP32: no operand copy at all — statistics and normalization read the
  // input block in place.
  finish_rows(layer_index, start_position, kind, rows, d, src,
              /*stats_done=*/false, alpha, beta, out);
}

void HaanNormProvider::residual_add_normalize_rows(
    std::size_t layer_index, std::size_t start_position, model::NormKind kind,
    std::size_t rows, std::span<float> h, std::span<const float> residual,
    std::span<const float> alpha, std::span<const float> beta,
    std::span<float> out) {
  const std::size_t d = check_row_block(rows, h.size(), alpha, beta, out.size());
  HAAN_EXPECTS(residual.size() == h.size());
  counters_.norm_calls += rows;
  counters_.fused_residual_norms += rows;
  ++counters_.batched_norm_calls;

  const kernels::KernelTable& k = kernels::active();
  const std::size_t min_rows = model::min_partition_rows(d);
  const float* src;
  bool stats_done = false;
  if (config_.format != numerics::NumericFormat::kFP32) {
    // One pass updates the residual stream and fills the operand block.
    buffer_.resize(h.size());
    pool_.for_rows(rows, min_rows,
                   [&](std::size_t, std::size_t r0, std::size_t nr) {
      k.residual_add_copy(h.data() + r0 * d, residual.data() + r0 * d,
                          buffer_.data() + r0 * d, nr * d);
    });
    quantize_rows(buffer_.data(), rows, d);
    src = buffer_.data();
  } else {
    // FP32: fuse the residual add with the per-row statistics sweep and feed
    // the normalization directly from the updated hidden block.
    const bool skip = predictor_.should_skip(layer_index);
    if (!skip || kind == model::NormKind::kLayerNorm) {
      const std::size_t nstat =
          config_.nsub == 0 ? d : std::min(config_.nsub, d);
      row_stats_.resize(rows);
      pool_.for_rows(rows, min_rows,
                     [&](std::size_t, std::size_t r0, std::size_t nr) {
        k.residual_add_stats_rows(h.data() + r0 * d, residual.data() + r0 * d,
                                  nr, d, nstat, row_stats_.data() + r0);
      });
      stats_done = true;
    } else {
      // Skipped RMSNorm layers never read statistics: plain add only.
      pool_.for_rows(rows, min_rows,
                     [&](std::size_t, std::size_t r0, std::size_t nr) {
        k.residual_add(h.data() + r0 * d, residual.data() + r0 * d, nr * d);
      });
    }
    src = h.data();
  }
  finish_rows(layer_index, start_position, kind, rows, d, src, stats_done,
              alpha, beta, out);
}

void HaanNormProvider::quantize_rows(float* block, std::size_t rows,
                                     std::size_t d) {
  row_scale_.resize(rows);
  const kernels::KernelTable& k = kernels::active();
  // Scale selection and quantization are per-row; chunks write disjoint
  // row_scale_ slots and block rows.
  pool_.for_rows(rows, model::min_partition_rows(d),
                 [&](std::size_t, std::size_t r0, std::size_t nr) {
    for (std::size_t r = r0; r < r0 + nr; ++r) {
      row_scale_[r] =
          config_.format == numerics::NumericFormat::kINT8
              ? numerics::choose_int8_scale(std::span(block + r * d, d))
              : 1.0f;
    }
    k.quantize_dequantize_rows(block + r0 * d, nr, d, config_.format,
                               row_scale_.data() + r0);
  });
}

void HaanNormProvider::finish_rows(std::size_t layer_index,
                                   std::size_t start_position,
                                   model::NormKind kind, std::size_t rows,
                                   std::size_t d, const float* src,
                                   bool stats_done, std::span<const float> alpha,
                                   std::span<const float> beta,
                                   std::span<float> out) {
  const kernels::KernelTable& k = kernels::active();
  // Per-layer resolution, hoisted out of the row loop: one skip-plan lookup,
  // one anchor check, one statistics width.
  const bool skip = predictor_.should_skip(layer_index);
  const bool anchor = predictor_.is_anchor(layer_index);
  const bool need_stats = !skip || kind == model::NormKind::kLayerNorm;
  const std::size_t nstat = config_.nsub == 0 ? d : std::min(config_.nsub, d);

  if (need_stats && !stats_done) row_stats_.resize(rows);
  row_mean_.resize(rows);
  row_isd_.resize(rows);
  const double inv_n = 1.0 / static_cast<double>(nstat);

  // Rows partition across the worker-local pool. Within one layer call every
  // row either computes its ISD or predicts it (skip is per layer), so pool
  // chunks only *read* predictor state (predict() is const); anchor recording
  // — the lone predictor write — happens serially below from row_isd_.
  // Counters accumulate serially too, so totals and results are bit-identical
  // to the serial loop for any thread count.
  pool_.for_rows(rows, model::min_partition_rows(d),
                 [&](std::size_t, std::size_t r0, std::size_t nr) {
    if (need_stats && !stats_done) {
      k.stats_rows(src + r0 * d, nr, d, nstat, row_stats_.data() + r0);
    }
    for (std::size_t r = r0; r < r0 + nr; ++r) {
      double mean = 0.0;
      double second_moment = 0.0;
      if (need_stats) {
        // Same arithmetic as subsampled_stats over the row's prefix.
        mean = row_stats_[r].sum * inv_n;
        const double sm = kind == model::NormKind::kLayerNorm
                              ? row_stats_[r].sum_sq * inv_n - mean * mean
                              : row_stats_[r].sum_sq * inv_n;
        second_moment = std::max(sm, 0.0);
      }
      row_mean_[r] = kind == model::NormKind::kLayerNorm ? mean : 0.0;
      row_isd_[r] = skip ? predictor_.predict(layer_index, start_position + r)
                         : compute_isd(second_moment);
    }
    // One normalize+affine kernel call per chunk, with the saturation clamp
    // fused into the same pass: like the hardware datapath (FP16 I/O range),
    // badly misconfigured plans (paper Table II's failing rows) then degrade
    // accuracy instead of passing inf/NaN to downstream layers.
    k.normalize_affine_rows(src + r0 * d, nr, d, row_mean_.data() + r0,
                            row_isd_.data() + r0, kernels::data_or_null(alpha),
                            kernels::data_or_null(beta), out.data() + r0 * d,
                            /*saturate=*/true);
  });

  if (need_stats) counters_.elements_read += rows * nstat;
  if (skip) {
    counters_.isd_predicted += rows;
  } else {
    counters_.isd_computed += rows;
    if (anchor) {
      for (std::size_t r = 0; r < rows; ++r) {
        predictor_.record_anchor(start_position + r, row_isd_[r]);
      }
    }
  }
  last_isd_ = row_isd_[rows - 1];
}

}  // namespace haan::core
