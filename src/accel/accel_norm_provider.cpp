#include "accel/accel_norm_provider.hpp"

#include "common/assert.hpp"
#include "kernels/kernels.hpp"
#include "numerics/formats.hpp"
#include "obs/trace.hpp"

namespace haan::accel {

AcceleratorNormProvider::AcceleratorNormProvider(AcceleratorConfig arch,
                                                 core::HaanConfig algorithm)
    : accel_(std::move(arch)),
      algorithm_(algorithm),
      predictor_(algorithm.plan, algorithm.predictor_fp16) {}

void AcceleratorNormProvider::begin_sequence() { predictor_.begin_sequence(); }

bool AcceleratorNormProvider::run_datapath(std::size_t layer_index,
                                           std::size_t position,
                                           model::NormKind kind,
                                           std::span<const float> z,
                                           std::span<const float> alpha,
                                           std::span<const float> beta,
                                           std::span<float> out) {
  HAAN_EXPECTS(out.size() == z.size());
  const AcceleratorConfig& config = accel_.config();

  // Quantize into the configured I/O format (upstream of the FP2FX units).
  std::vector<float> quantized(z.begin(), z.end());
  if (config.io_format != numerics::NumericFormat::kFP32) {
    const float scale = config.io_format == numerics::NumericFormat::kINT8
                            ? numerics::choose_int8_scale(quantized)
                            : 1.0f;
    kernels::quantize_dequantize_span(quantized, config.io_format, scale);
  }

  const bool skipped = predictor_.should_skip(layer_index);
  numerics::Fixed mean(config.acc_fixed);
  numerics::Fixed isd(config.isd_fixed);
  if (skipped) {
    isd = encode_predicted_isd(predictor_.predict(layer_index, position), config);
    if (kind == model::NormKind::kLayerNorm) {
      mean = input_statistics_calculator(quantized, algorithm_.nsub, kind, config)
                 .mean;
    }
  } else {
    const IscResult stats =
        input_statistics_calculator(quantized, algorithm_.nsub, kind, config);
    mean = stats.mean;
    const SriResult sri = square_root_inverter(stats.variance, config);
    isd = sri.isd;
    if (predictor_.is_anchor(layer_index) && isd.to_double() > 0.0) {
      predictor_.record_anchor(position, isd.to_double());
    }
  }
  normalization_unit(quantized, mean, isd, alpha, beta, kind, config, out);
  return skipped;
}

void AcceleratorNormProvider::normalize_rows(
    std::size_t layer_index, std::size_t start_position, model::NormKind kind,
    std::size_t rows, std::span<const float> x, std::span<const float> alpha,
    std::span<const float> beta, std::span<float> out) {
  const std::size_t d = check_row_block(rows, x.size(), alpha, beta, out.size());
  // Wall-clock of the bit-accurate simulation, NOT the modeled hardware time
  // (that lives in cost_.cycles); nests under the block's norm/accel span.
  HAAN_TRACE_SPAN("datapath", "accel", static_cast<std::uint32_t>(layer_index),
                  static_cast<std::uint32_t>(rows));

  // Skip is resolved per layer, so one batched work item describes every row.
  bool skipped = false;
  for (std::size_t r = 0; r < rows; ++r) {
    skipped = run_datapath(layer_index, start_position + r, kind,
                           x.subspan(r * d, d), alpha, beta,
                           out.subspan(r * d, d));
  }

  // Batched cycle model: the whole block streams through the pipeline as one
  // DMA burst — fill once, then one bottleneck interval per additional row.
  // A one-row call pays the fill for its single vector.
  NormLayerWork work;
  work.n = d;
  work.vectors = rows;
  work.nsub = algorithm_.nsub;
  work.isd_skipped = skipped;
  work.kind = kind;
  cost_.cycles += accel_.time_layer(work).cycles;
  cost_.energy_uj += accel_.layer_energy_uj(work);
  cost_.norm_calls += rows;
  if (skipped) cost_.skipped += rows;
  ++cost_.batched_layers;
}

}  // namespace haan::accel
