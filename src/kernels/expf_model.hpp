// Constants of glibc 2.36's table-driven `expf` (sysdeps/ieee754/flt-32/
// e_expf.c, the FMA ifunc variant), shared by the SIMD backends' lane-wise
// model of it. Per input x (|x| < 88, not NaN), in double:
//
//   z  = kInvLn2N * x
//   kd = (z + kShift) - kShift          // round(z), ties to even
//   ki = bits(z + kShift)               // the same integer, in the low bits
//   r  = fma(kInvLn2N, x, -kd)          // reduced argument, |r| <= 1/2
//   s  = as_double(kExpTable[ki % 32] + (ki << 47))   // 2^(ki/32)
//   y  = fma(fma(kC0, r, kC1), r * r, fma(kC2, r, 1.0)) * s
//   expf(x) = (float)y
//
// Every step is one IEEE double operation per lane, so a vector lane rounds
// exactly like the scalar libm call. The model matches std::exp(float) bit for
// bit on every finite float with |x| < 88 (bench/exp_exhaustive checks all
// 2^32 inputs); |x| >= 88, inf and NaN go to libm. The non-FMA ifunc computes
// r = z - kd instead and differs on exactly two inputs, kExpProbeNonFma.
#pragma once

#include <cstdint>

namespace haan::kernels::detail {

/// tab[i] = bits(2^(i/32)) - (i << 47): adding ki << 47 rebuilds the exponent.
inline constexpr std::uint64_t kExpTable[32] = {
    0x3ff0000000000000, 0x3fefd9b0d3158574, 0x3fefb5586cf9890f,
    0x3fef9301d0125b51, 0x3fef72b83c7d517b, 0x3fef54873168b9aa,
    0x3fef387a6e756238, 0x3fef1e9df51fdee1, 0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb, 0x3feedea64c123422, 0x3feece086061892d,
    0x3feebfdad5362a27, 0x3feeb42b569d4f82, 0x3feeab07dd485429,
    0x3feea47eb03a5585, 0x3feea09e667f3bcd, 0x3fee9f75e8ec5f74,
    0x3feea11473eb0187, 0x3feea589994cce13, 0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5, 0x3feec49182a3f090, 0x3feed503b23e255d,
    0x3feee89f995ad3ad, 0x3feeff76f2fb5e47, 0x3fef199bdd85529c,
    0x3fef3720dcef9069, 0x3fef5818dcfba487, 0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da, 0x3fefd0765b6e4540,
};

inline constexpr double kInvLn2N = 0x1.71547652b82fep+0 * 32;
inline constexpr double kShift = 0x1.8p+52;
inline constexpr double kC0 = 0x1.c6af84b912394p-5 / (32.0 * 32.0 * 32.0);
inline constexpr double kC1 = 0x1.ebfce50fac4f3p-3 / (32.0 * 32.0);
inline constexpr double kC2 = 0x1.62e42ff0c52d6p-1 / 32.0;

/// bits(88.0f): a lane whose |x| bits reach this (|x| >= 88, inf, NaN) takes
/// libm's special-case path instead of the model.
inline constexpr std::uint32_t kExpSpecialAbsBits = 0x42B00000;

/// The only finite inputs where the non-FMA expf variant differs from the FMA
/// one (and so from the model); the dispatcher's host check probes them.
inline constexpr float kExpProbeNonFma[2] = {0x1.04845ep+5f, -0x1.f8cbb2p+5f};

}  // namespace haan::kernels::detail
