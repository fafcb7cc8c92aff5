// The HAAN normalization operator: a NormProvider that applies the paper's
// three optimizations — ISD skipping (§III-B), input subsampling (§III-C) and
// operand quantization (§III-C) — with the square-root inverter's fast
// inverse-sqrt numerics (§IV-B). This is the bit-level software twin of the
// accelerator datapath; `haan::accel` adds cycle timing on top.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/isd_predictor.hpp"
#include "model/norm_provider.hpp"

namespace haan::core {

/// Drop-in HAAN normalization.
class HaanNormProvider final : public model::NormProvider {
 public:
  /// `norm_threads` sizes the worker-local RowPartitionPool that splits large
  /// row blocks across threads (0 = HAAN_NORM_THREADS / hardware default,
  /// 1 = fully serial). Row kernels are row-wise and the ISD predictor's
  /// record/predict bookkeeping stays serial, so results are bit-identical
  /// for any thread count.
  explicit HaanNormProvider(HaanConfig config, std::size_t norm_threads = 0);

  const HaanConfig& config() const { return config_; }

  void begin_sequence() override;

  const char* trace_label() const override { return "norm/haan"; }

  void normalize(std::size_t layer_index, std::size_t position, model::NormKind kind,
                 std::span<const float> z, std::span<const float> alpha,
                 std::span<const float> beta, std::span<float> out) override;

  /// Fused path: the residual add shares a pass with the operand-buffer fill,
  /// so the datapath reads the hidden vector once less per norm layer.
  void residual_add_normalize(std::size_t layer_index, std::size_t position,
                              model::NormKind kind, std::span<float> h,
                              std::span<const float> residual,
                              std::span<const float> alpha,
                              std::span<const float> beta,
                              std::span<float> out) override;

  /// Row-block overrides: per-layer work (skip-plan lookup, kernel backend
  /// resolution, alpha/beta prep, scratch sizing) is hoisted out of the row
  /// loop and the kernels run once over the whole (rows x d) block. In FP32
  /// the operand-buffer copy disappears entirely (statistics read the hidden
  /// block in place). Bit-identical to the per-row loop for a given backend.
  void normalize_rows(std::size_t layer_index, std::size_t start_position,
                      model::NormKind kind, std::size_t rows,
                      std::span<const float> x, std::span<const float> alpha,
                      std::span<const float> beta, std::span<float> out) override;

  void residual_add_normalize_rows(std::size_t layer_index,
                                   std::size_t start_position,
                                   model::NormKind kind, std::size_t rows,
                                   std::span<float> h,
                                   std::span<const float> residual,
                                   std::span<const float> alpha,
                                   std::span<const float> beta,
                                   std::span<float> out) override;

  /// Execution counters for verifying skip behaviour end to end. The per-row
  /// counters (norm_calls, isd_*, elements_read, fused_residual_norms) count
  /// rows regardless of entry point, so per-row and row-block execution report
  /// identical values; batched_* record how well callers batch the seam.
  struct Counters {
    std::size_t norm_calls = 0;
    std::size_t isd_computed = 0;   ///< square-root inverter invocations
    std::size_t isd_predicted = 0;  ///< predictor invocations (skipped ISD)
    std::size_t elements_read = 0;  ///< statistics-path memory reads
    std::size_t fused_residual_norms = 0;  ///< fused residual+norm rows
    std::size_t batched_norm_calls = 0;    ///< row-block layer invocations
    std::size_t batched_rows = 0;          ///< rows through the row-block path
  };
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

  /// The ISD value used for the most recent normalize() call (test hook).
  double last_isd_used() const { return last_isd_; }

 private:
  double compute_isd(double second_moment) const;

  /// Statistics + normalization over the already-filled (pre-quantization)
  /// operand buffer; shared by the plain and fused entry points.
  void normalize_prepared(std::size_t layer_index, std::size_t position,
                          model::NormKind kind, std::span<const float> alpha,
                          std::span<const float> beta, std::span<float> out);

  /// Quantizes a (rows x d) operand block in place with per-row scales.
  void quantize_rows(float* block, std::size_t rows, std::size_t d);

  /// Shared tail of the row-block entry points: per-row statistics over
  /// `src` (the quantized operand block, or the hidden block itself in FP32),
  /// ISD compute/predict per row, then one normalize+saturate kernel call.
  void finish_rows(std::size_t layer_index, std::size_t start_position,
                   model::NormKind kind, std::size_t rows, std::size_t d,
                   const float* src, bool stats_done,
                   std::span<const float> alpha, std::span<const float> beta,
                   std::span<float> out);

  HaanConfig config_;
  IsdPredictor predictor_;
  model::RowPartitionPool pool_;  ///< worker-local row parallelism
  Counters counters_;
  std::vector<float> buffer_;
  double last_isd_ = 0.0;

  // Row-block scratch, reused across layers (no hot-path allocation).
  std::vector<kernels::SumStats> row_stats_;
  std::vector<double> row_mean_;
  std::vector<double> row_isd_;
  std::vector<float> row_scale_;
};

}  // namespace haan::core
