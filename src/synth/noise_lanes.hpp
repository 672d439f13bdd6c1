// The synthetic camera's noise in float lanes (core/simd.hpp VecF32), and the
// bound that lets a float estimate decide a byte.
//
// Every sensor normal n ends up in exactly one channel byte,
// trunc(clamp(lift + n·σ, 0, 255)), and the noise contract in renderer.hpp
// pins that byte as the double expression computes it. The lanes here
// compute the same value v in float, with a polynomial log in place of
// std::log, and the renderer keeps the float byte wherever v lies more than
// kEdgeMargin from every integer: there the double value lies on the same
// side of each integer, so truncation and the clamp give the same byte. A
// channel within the margin is recomputed in double, with the contract's own
// expression (Ziv's rounding test, ACM TOMS 17(3), 1991, on an 8-bit output).
//
// The bound, with u = 2^−24 (one float rounding) and the inputs the stream
// can produce: r² in [2^−106, 1] (|2u − 1| ≥ 2^−53 where nonzero), hence
// |n| ≤ sqrt(−2·ln 2^−106) < kMaxNormal = 12.2.
//  - log r²: r² = 2^e·s with s in [√½, √2] and f = s − 1 exact in double,
//    then rounded to float: ≤ 1.2u on log1p(f) (its condition number
//    f/((1 + f)·log1p f) is below 1.2 there). The polynomial's own error is
//    0.06u (checked in long double on 2^24 points of the interval), its float
//    evaluation and the e·ln 2 sum add at most 2.5u more relative to log r²:
//    the sum cannot cancel by more than a factor 2, as |log1p f| ≤ 0.35 and
//    |e·ln 2| ≥ 0.69 once e ≠ 0. So ε_log ≤ 4u (2.15u measured).
//  - m = sqrt((−2·log r²)/r²): r² rounded to float (u), the divide (u), the
//    sqrt halves all that and rounds (u): ε_m ≤ ε_log/2 + 2u = 4u.
//  - n = y·m or x·m: the coordinate rounded to float (u), the multiply (u):
//    ε_n ≤ 6u. σ·n: σ rounded to float (u), the multiply (u): 8u = 2^−21.
//  - v = lift + σ·n: lift rounded to float (≤ 261u: background + gradient or
//    clothing, each at most 255 + 6) and the add (≤ 1024u for |v| < 1024):
//    ≤ 2^11·u = 2^−13.
// The double side rounds a handful of times at 2^−53, below 2^−40 here. So
//   |v_float − v_double| ≤ 2^−21·|σ|·kMaxNormal + 2^−13 + 2^−40,
// which for |σ| ≤ kMaxNoiseSigma = 32 is below 3.1·10^−4, a third of
// kEdgeMargin = 2^−10 ≈ 9.8·10^−4. A camera with more noise than that sends
// every channel the exact way. At the default σ = 3.5 the bound is
// 1.4·10^−4, seven times inside the margin, and about 0.2% of a frame's
// channels fall within it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/simd.hpp"

namespace slj::synth::noise {

/// A float channel value closer than this to an integer takes the exact path.
inline constexpr float kEdgeMargin = 0x1p-10f;
/// Above every |n| the stream can produce (r² ≥ 2^−106).
inline constexpr double kMaxNormal = 12.2;
/// Relative error bound of a float lane's σ·n against the double σ·n.
inline constexpr double kNoiseRelError = 0x1p-21;
/// Bound of the float compose (lift rounding and the add) for |v| < 1024.
inline constexpr double kComposeError = 0x1p-13;
/// The largest |σ| for which the bound above stays below kEdgeMargin / 2.
inline constexpr double kMaxNoiseSigma = 32.0;
static_assert(kNoiseRelError * kMaxNoiseSigma * kMaxNormal + kComposeError < kEdgeMargin / 2);

/// log r² for lanes split by load_log2_split into exponent e and fraction f:
/// e·ln 2 + log1p(f), Cephes' logf polynomial on f in [√½ − 1, √2 − 1] with
/// ln 2 split in two so that e·ln2_hi is exact.
template <class Backend>
simd::VecF32<Backend> log_split(simd::VecF32<Backend> e, simd::VecF32<Backend> f) {
  using F = simd::VecF32<Backend>;
  const F z = f * f;
  F p = F::broadcast(7.0376836292e-2f);
  p = p * f + F::broadcast(-1.1514610310e-1f);
  p = p * f + F::broadcast(1.1676998740e-1f);
  p = p * f + F::broadcast(-1.2420140846e-1f);
  p = p * f + F::broadcast(1.4249322787e-1f);
  p = p * f + F::broadcast(-1.6668057665e-1f);
  p = p * f + F::broadcast(2.0000714765e-1f);
  p = p * f + F::broadcast(-2.4999993993e-1f);
  p = p * f + F::broadcast(3.3333331174e-1f);
  F y = p * f * z;
  y = y + e * F::broadcast(-2.12194440e-4f);
  y = y - F::broadcast(0.5f) * z;
  return (f + y) + e * F::broadcast(0.693359375f);
}

/// Pass 2 in float lanes: normals[2i] ≈ y[i]·m and normals[2i + 1] ≈ x[i]·m
/// with m ≈ sqrt((−2·log r²[i]) / r²[i]), each within kNoiseRelError of the
/// double `polar_scale` product (less the σ roundings). Scales whole vectors
/// of pairs from 0 and returns how many.
template <class Backend>
std::size_t scale_pairs(const double* x, const double* y, const double* r2, std::size_t count,
                        float* normals) {
  using F = simd::VecF32<Backend>;
  const F minus_two = F::broadcast(-2.0f);
  std::size_t i = 0;
  for (; i + F::kLanes <= count; i += F::kLanes) {
    F e{}, f{};
    F::load_log2_split(r2 + i, e, f);
    const F m = F::sqrt((minus_two * log_split<Backend>(e, f)) / F::load_f64(r2 + i));
    F::store_interleaved(F::load_f64(y + i) * m, F::load_f64(x + i) * m, normals + 2 * i);
  }
  return i;
}

/// Pass 3's background in float lanes: out[j] = trunc(clamp(lift[j % 3] +
/// normals[j]·sigma)) for whole groups of 3·kLanes channels from 0, and the
/// index first + j of every channel whose value lies within the margin of
/// an integer (fraction below `lo` or above `hi`) appended to `edges`.
/// Returns how many channels it composed. The lanes cycle through R, G, B,
/// so three vectors of the row's lifts cover one group.
template <class Backend>
std::size_t compose_channels(const float* normals, std::size_t count, const float* lift,
                             float sigma, float lo, float hi, std::uint8_t* out,
                             std::uint32_t first, std::uint32_t* edges, std::size_t& n_edges) {
  using F = simd::VecF32<Backend>;
  constexpr std::size_t kLanes = F::kLanes;
  float pattern[3 * kLanes];
  for (std::size_t t = 0; t < 3 * kLanes; ++t) pattern[t] = lift[t % 3];
  const F base[3] = {F::load(pattern), F::load(pattern + kLanes), F::load(pattern + 2 * kLanes)};
  const F s = F::broadcast(sigma);
  const F low = F::broadcast(lo);
  const F high = F::broadcast(hi);
  std::size_t j = 0;
  for (; j + 3 * kLanes <= count; j += 3 * kLanes) {
    for (std::size_t t = 0; t < 3; ++t) {
      const std::size_t at = j + t * kLanes;
      const F v = base[t] + F::load(normals + at) * s;
      const F frac = v - F::trunc(v);
      v.store_trunc_u8(out + at);
      for (unsigned near = F::lt_mask(frac, low) | F::lt_mask(high, frac); near != 0;
           near &= near - 1) {
        edges[n_edges++] = first + static_cast<std::uint32_t>(at) +
                           static_cast<std::uint32_t>(std::countr_zero(near));
      }
    }
  }
  return j;
}

}  // namespace slj::synth::noise
