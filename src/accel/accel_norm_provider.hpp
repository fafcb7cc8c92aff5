// Accelerator-backed normalization provider: plugs the bit-accurate HAAN
// datapath into the transformer's NormProvider seam, so an entire model
// forward runs on the *hardware numerics* (FP2FX, fixed-point adder trees,
// SRI with fixed-point Newton, NU) while accumulating the cycle and energy
// cost of every normalization layer. This is the "what would the silicon
// actually compute and cost" view; core::HaanNormProvider is the
// algorithm-level float twin.
#pragma once

#include "accel/accelerator.hpp"
#include "core/config.hpp"
#include "core/isd_predictor.hpp"
#include "model/norm_provider.hpp"

namespace haan::accel {

/// NormProvider executing through the accelerator datapath.
///
/// normalize_rows runs every row through the bit-accurate datapath (the
/// numerics are per vector) and prices the whole (rows x d) block as one
/// pipelined burst (`NormLayerWork{vectors = rows}`): the DMA stream and the
/// pipeline fill are paid once per call, so packing more rows into a call
/// amortizes them. The residual add happens host-side (the base class's
/// unfused residual_add_normalize_rows): the accelerator sees the summed
/// vector arriving over DMA.
class AcceleratorNormProvider final : public model::NormProvider {
 public:
  /// `arch` fixes the hardware configuration; `algorithm` carries the HAAN
  /// knobs (nsub, skip plan — the io format is taken from `arch`).
  AcceleratorNormProvider(AcceleratorConfig arch, core::HaanConfig algorithm);

  void begin_sequence() override;

  const char* trace_label() const override { return "norm/accel"; }

  /// Every row runs the full datapath, and the call is charged ONE
  /// pipelined cost of `rows` vectors — fill + DMA burst paid once.
  void normalize_rows(std::size_t layer_index, std::size_t start_position,
                      model::NormKind kind, std::size_t rows,
                      std::span<const float> x, std::span<const float> alpha,
                      std::span<const float> beta, std::span<float> out) override;

  /// Cumulative hardware cost since construction (or reset). norm_calls and
  /// skipped count vectors; batched_layers counts calls (one call = one DMA
  /// burst).
  struct HardwareCost {
    std::size_t cycles = 0;
    double energy_uj = 0.0;
    std::size_t norm_calls = 0;      ///< vectors normalized
    std::size_t skipped = 0;         ///< vectors whose ISD was predicted
    std::size_t batched_layers = 0;  ///< row-block invocations (DMA bursts)
  };
  const HardwareCost& cost() const { return cost_; }
  void reset_cost() { cost_ = {}; }

  const HaanAccelerator& accelerator() const { return accel_; }

 private:
  /// Bit-accurate datapath execution of one vector; charges no cost.
  /// Returns true when the layer's ISD was predicted (SRI bypassed).
  bool run_datapath(std::size_t layer_index, std::size_t position,
                    model::NormKind kind, std::span<const float> z,
                    std::span<const float> alpha, std::span<const float> beta,
                    std::span<float> out);

  HaanAccelerator accel_;
  core::HaanConfig algorithm_;
  core::IsdPredictor predictor_;
  HardwareCost cost_;
};

}  // namespace haan::accel
