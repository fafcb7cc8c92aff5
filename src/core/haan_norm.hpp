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

  /// The HAAN operator over a (rows x d) block, the provider's one
  /// execution path: per-layer work (skip-plan lookup, anchor check,
  /// statistics width, kernel backend, scratch sizing) is resolved once per
  /// call and the kernels run over the whole block. In FP32 there is no
  /// operand copy (statistics read the hidden block in place); INT8/FP16
  /// quantize a copy with per-row scales. A single vector is rows = 1.
  void normalize_rows(std::size_t layer_index, std::size_t start_position,
                      model::NormKind kind, std::size_t rows,
                      std::span<const float> x, std::span<const float> alpha,
                      std::span<const float> beta, std::span<float> out) override;

  /// Fused path: in FP32 the residual add shares a pass with the row
  /// statistics; quantized formats add while filling the operand block.
  void residual_add_normalize_rows(std::size_t layer_index,
                                   std::size_t start_position,
                                   model::NormKind kind, std::size_t rows,
                                   std::span<float> h,
                                   std::span<const float> residual,
                                   std::span<const float> alpha,
                                   std::span<const float> beta,
                                   std::span<float> out) override;

  /// Execution counters for verifying skip behaviour end to end. norm_calls,
  /// isd_*, elements_read and fused_residual_norms count rows, so they do not
  /// depend on how rows are grouped into calls; batched_norm_calls counts
  /// calls, so norm_calls / batched_norm_calls is the mean rows per call.
  struct Counters {
    std::size_t norm_calls = 0;     ///< normalized rows
    std::size_t isd_computed = 0;   ///< square-root inverter invocations
    std::size_t isd_predicted = 0;  ///< predictor invocations (skipped ISD)
    std::size_t elements_read = 0;  ///< statistics-path memory reads
    std::size_t fused_residual_norms = 0;  ///< fused residual+norm rows
    std::size_t batched_norm_calls = 0;    ///< row-block layer invocations
  };
  const Counters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }

  /// The ISD value used for the last row of the most recent call (test hook).
  double last_isd_used() const { return last_isd_; }

 private:
  double compute_isd(double second_moment) const;

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
