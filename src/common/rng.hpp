// Deterministic random number generation. Every stochastic component in the
// library draws from an explicitly seeded Rng so that experiments, tests and
// benches are bit-reproducible across runs and platforms. The core generator is
// SplitMix64 (Steele et al.), which is tiny, fast, and passes BigCrush when used
// as a 64-bit stream.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace haan::common {

/// Deterministic 64-bit PRNG with convenience distributions.
///
/// Copyable value type: forking a child stream for a subcomponent is done via
/// `fork()`, which derives an independent stream from the parent state so that
/// adding draws to one component does not perturb another.
class Rng {
 public:
  /// Seeds the stream. Two Rngs with the same seed produce identical draws.
  explicit Rng(std::uint64_t seed) : state_(seed ^ kGolden) {}

  /// Next raw 64-bit value (SplitMix64 output function).
  std::uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Standard normal via Box–Muller (uses two uniforms per pair, caches one).
  double gaussian();

  /// Normal with the given mean and standard deviation.
  double gaussian(double mean, double stddev);

  /// Fills `out` with i.i.d. N(mean, stddev^2) floats.
  void fill_gaussian(std::span<float> out, double mean, double stddev);

  /// Derives an independent child stream; the parent advances by one draw.
  Rng fork();

  /// Fisher–Yates shuffle of indices [0, n). Returns the permutation.
  std::vector<std::size_t> permutation(std::size_t n);

 private:
  static constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  std::uint64_t state_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace haan::common
