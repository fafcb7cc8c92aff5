// A lane-wise model of glibc 2.36's `tanhf` (sysdeps/ieee754/flt-32/
// s_tanhf.c, fdlibm's, which calls s_expm1f.c), and the GELU the SIMD
// backends build on it. Both functions are plain symbols in that libm (no FMA
// ifunc variant), so every step below is one float operation per lane: the
// backend TUs are built with -ffp-contract=off, so nothing is fused. Per
// input x:
//
//   |x| < 2^-55 (zeros, subnormals)    x * (1 + x)
//   2^-55 <= |x| < 1                   t = expm1f(-2|x|), z = -t / (t + 2)
//   1 <= |x| < 22                      t = expm1f(2|x|),  z = 1 - 2 / (t + 2)
//   |x| >= 22, inf                     z = 1 (fdlibm's 1 - 1e-30)
//   NaN                                x + x (the quiet input)
//   result                             z with x's sign
//
// expm1f(u) reduces u = k ln2 + r, k = (int)(u / ln2 +- 0.5), runs fdlibm's
// rational approximation on r and rebuilds the result by cases of k. The
// model keeps four of fdlibm's cases: k = 0, k = -1, 1 <= k <= 22 (via
// 1 - 2^-k), and otherwise adding k to the exponent of 1 - (e - r). fdlibm
// also special-cases |u| < 2^-25 (returns u), |u| <= 0.5 ln2 (k = 0, no
// reduction), 0.5 ln2 < |u| < 1.5 ln2 (k = -1 set directly) and
// 23 <= k <= 56 (via 2^-k). On tanhf's inputs the first three give the same
// bits as the general reduction, and the last gives different expm1f bits
// but the same tanhf (a one-off check of the model against glibc 2.36's
// tanhf on all 2^32 inputs). The lanes evaluate every case and select per
// lane with masks, so a vector lane rounds exactly like the scalar libm
// call: bench/exp_exhaustive, a CI step, checks the GELU built on it against
// the seed loop on all 2^32 inputs.
//
// The functions are templates over a GCC vector type (__m256, __m512) with
// internal linkage, so each backend TU compiles its own copy with its own ISA
// flags and no copy can leak into another TU.
#pragma once

#include <bit>
#include <cstdint>

namespace haan::kernels::detail {

/// The seed GELU loop's constants (tensor::gelu_inplace before it dispatched).
inline constexpr float kGeluSqrt2OverPi = 0.7978845608028654f;
inline constexpr float kGeluCubic = 0.044715f;

/// GELU inputs on which this libm's tanhf must agree with the model for a
/// SIMD table to keep its gelu: one per tanhf/expm1f reduction case (k = 0,
/// k = -1, general k < 0, and |x| >= 1), each where fdlibm's tanhf differs
/// from the correctly rounded tanh in a bit that survives into the GELU
/// output. A correctly rounded tanhf (CORE-MATH, glibc >= 2.41) fails them.
inline constexpr float kTanhProbeFdlibm[] = {
    -0x1.0086e4p-7f, -0x1.bbdf58p-3f, -0x1.47993cp-1f, -0x1.2e10bap+0f,
    0x1.2e1608p+0f,
};

namespace {

/// tanhf of every lane of x, bit for bit (see the file comment).
template <class F>
F tanhf_lanes(F x) {
  // A float-vector comparison yields signed 32-bit lanes of the same count.
  using I = decltype(x < x);
  constexpr std::int32_t kSign = std::bit_cast<std::int32_t>(0x80000000u);
  const F one = F{} + 1.0f;
  const I bits = std::bit_cast<I>(x);
  const I ix = bits & 0x7fffffff;
  const I big = ix >= 0x3f800000;  // |x| >= 1
  // Lanes outside 2^-55 <= |x| < 22 (NaN, inf included) take other cases;
  // they run the expm1f arithmetic on |x| = 1 so every lane stays finite.
  const I via_expm1 = (ix >= 0x24000000) & (ix < 0x41b00000);
  const F a = std::bit_cast<F>(via_expm1 ? ix : std::bit_cast<I>(one));

  // expm1f(u), u = 2|x| (|x| >= 1) or -2|x|: u is in [2, 44) or (-2, -2^-54].
  // fdlibm's general reduction throughout (see the file comment).
  const F u = big ? a + a : a * -2.0f;
  const I k = __builtin_convertvector(
      u * 0x1.715476p+0f + (big ? F{} + 0.5f : F{} - 0.5f), I);
  const F kf = __builtin_convertvector(k, F);
  const F hi = u - kf * 0x1.62e3p-1f;  // ln2_hi: kf * ln2_hi is exact
  const F lo = kf * 0x1.2fefa2p-17f;   // ln2_lo
  const F r = hi - lo;
  const F c = (hi - r) - lo;
  const F hfx = 0.5f * r;
  const F hxs = r * hfx;
  const F r1 =
      one +
      hxs * (-0x1.111112p-5f +
             hxs * (0x1.a01a02p-10f +
                    hxs * (-0x1.4ce19ap-14f +
                           hxs * (0x1.0cfca8p-18f + hxs * -0x1.afdb76p-23f))));
  const F t3 = 3.0f - r1 * hfx;
  const F e0 = hxs * ((r1 - t3) / (6.0f - r * t3));
  const F e = (r * (e0 - c) - c) - hxs;
  const I k_exp = k << 23;  // adds k to a float's exponent field
  // k <= -2 or k >= 23.
  F em1 = std::bit_cast<F>(std::bit_cast<I>(one - (e - r)) + k_exp) - one;
  // 1 <= k <= 22: 1 - 2^-k, shift count clamped so no lane shifts by >= 32.
  const I k_small = (k >= 1) & (k <= 22);
  const F t_small =
      std::bit_cast<F>(0x3f800000 - (0x1000000 >> (k_small ? k : I{} + 1)));
  em1 = k_small ? std::bit_cast<F>(std::bit_cast<I>(t_small - (e - r)) + k_exp)
                : em1;
  em1 = k == -1 ? 0.5f * (r - e) - 0.5f : em1;
  em1 = k == 0 ? r - (r * e0 - hxs) : em1;

  // One division for both cases: 1 - 2 / (t + 2) or -t / (t + 2).
  const F neg_em1 = std::bit_cast<F>(std::bit_cast<I>(em1) ^ kSign);
  const F q = (big ? F{} + 2.0f : neg_em1) / (em1 + 2.0f);
  F z = big ? one - q : q;
  z = ix >= 0x41b00000 ? one : z;  // |x| >= 22, inf
  z = std::bit_cast<F>(std::bit_cast<I>(z) ^ (bits & kSign));
  z = ix < 0x24000000 ? x * (one + x) : z;
  return ix > 0x7f800000 ? x + x : z;
}

/// The seed GELU loop on every lane: out = (0.5v)(1 + tanh(k(v + 0.044715v^3)))
/// with the seed's operation order, so it is bit-identical to it.
template <class F>
F gelu_lanes(F v) {
  const F inner = kGeluSqrt2OverPi * (v + ((kGeluCubic * v) * v) * v);
  return (0.5f * v) * (1.0f + tanhf_lanes(inner));
}

}  // namespace
}  // namespace haan::kernels::detail
