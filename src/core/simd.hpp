// Portable fixed-width SIMD abstraction for the per-frame vision kernels and
// the synthetic camera's noise kernels.
//
// Backends: SSE2 (16 u8 / 8 u16 / 4 u32 / 4 f32 / 2 f64 lanes) and a scalar
// fallback that is always compiled. The active backend is chosen at
// configure time by the SLJ_SIMD CMake option:
//
//   AUTO (default)  SSE2 wherever the compiler targets it (__SSE2__, as every
//                   x86-64 compiler does), the scalar fallback everywhere else
//   OFF             force the scalar fallback (defines SLJ_SIMD_FORCE_SCALAR)
//
// A -march=native build still runs the SSE2 lanes; the compiler may only
// re-encode them. There is no wider backend: one would need a way to select
// it per platform or at run time, and a benchmark workload on each side of
// the choice.
//
// Every kernel written against this header is templated on a backend tag and
// instantiated twice: once with `Active` (the configured backend) and once
// with `ScalarBackend` (the reference). The scalar twin is what the
// SIMD-vs-scalar property suites compare against, and what ships when
// SLJ_SIMD=OFF.
//
// Bit-identity contract. The SIMD paths are bit-identical to the scalar
// paths because every integer operation here is exact arithmetic on bytes,
// small counts (VecU16: window sums of 8-bit pixels) and 32-bit words
// (VecU32: wrapping, as uint32_t does), and every floating-point operation
// (VecF64, VecF32) is one IEEE-754 correctly rounded add, subtract,
// multiply, divide, square root or conversion per lane, the same rounding
// the scalar expression gets. Nothing here fuses a multiply into an add,
// and the build keeps the compiler from doing so (-ffp-contract=off, which
// also covers -march=native and -mfma): a fused multiply-add rounds once
// where the scalar code rounds twice, and the rendered corpus digests would
// move.
//
// Approximate lanes. VecF32 carries estimates: the renderer's float noise
// computes, with a polynomial log, what the pinned double expression
// computes with std::log. An estimate may decide an output only behind a
// proven margin: the error bound is written next to the margin, a tested
// sweep checks it, and every output the estimate cannot decide within the
// margin is recomputed exactly (synth/noise_lanes.hpp).
#pragma once

#include <bit>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(SLJ_SIMD_FORCE_SCALAR) && \
    (defined(__SSE2__) || defined(_M_X64) || (defined(_M_IX86_FP) && _M_IX86_FP >= 2))
#define SLJ_SIMD_SSE2 1
#include <emmintrin.h>
#endif

namespace slj::simd {

// ---- backend tags ----------------------------------------------------------

struct ScalarBackend {};
#if defined(SLJ_SIMD_SSE2)
struct Sse2Backend {};
using Active = Sse2Backend;
#else
using Active = ScalarBackend;
#endif

/// Human-readable name of the configured backend (for telemetry / bench JSON).
inline const char* backend_name() {
#if defined(SLJ_SIMD_SSE2)
  return "sse2";
#else
  return "scalar";
#endif
}

// ---- VecU8: a fixed-width vector of bytes ----------------------------------

template <class Backend>
struct VecU8;

template <>
struct VecU8<ScalarBackend> {
  static constexpr int kLanes = 8;  // one 64-bit word at a time
  std::uint64_t v;

  static VecU8 load(const std::uint8_t* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return {w};
  }
  bool any() const { return v != 0; }
};

#if defined(SLJ_SIMD_SSE2)
template <>
struct VecU8<Sse2Backend> {
  static constexpr int kLanes = 16;
  __m128i v;

  static VecU8 load(const std::uint8_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  bool any() const {
    const __m128i zero = _mm_setzero_si128();
    return _mm_movemask_epi8(_mm_cmpeq_epi8(v, zero)) != 0xffff;
  }
};
#endif

/// u8 lane width of the configured backend (telemetry / bench JSON).
inline int u8_lanes() { return VecU8<Active>::kLanes; }

// ---- VecU16: a fixed-width vector of 16-bit pixel counts -------------------
//
// Backs the separable integer box sums (the extractor's RGB window sums and
// the binary median's counts) and the extractor's scaled difference plane.
// Lanes wrap at 2^16, so callers bound their sums below that; store_gt01 and
// max compare signed on x86, so their inputs must stay at or below 32767
// (the median guards its window size for this; the scaled difference is at
// most 27540).

template <class Backend>
struct VecU16;

template <>
struct VecU16<ScalarBackend> {
  static constexpr int kLanes = 1;
  std::uint16_t v;

  static VecU16 load(const std::uint16_t* p) { return {*p}; }
  static VecU16 broadcast(std::uint16_t x) { return {x}; }
  /// Loads kLanes bytes zero-extended to 16 bits.
  static VecU16 load_u8(const std::uint8_t* p) { return {*p}; }
  void store(std::uint16_t* p) const { *p = v; }

  friend VecU16 operator+(VecU16 a, VecU16 b) {
    return {static_cast<std::uint16_t>(a.v + b.v)};
  }
  friend VecU16 operator-(VecU16 a, VecU16 b) {
    return {static_cast<std::uint16_t>(a.v - b.v)};
  }
  /// Lane-wise product, kept to its low 16 bits.
  friend VecU16 operator*(VecU16 a, VecU16 b) {
    // In 32 unsigned bits: a product of two promoted ints could overflow.
    return {static_cast<std::uint16_t>(static_cast<std::uint32_t>(a.v) * b.v)};
  }
  friend VecU16 operator|(VecU16 a, VecU16 b) {
    return {static_cast<std::uint16_t>(a.v | b.v)};
  }

  /// |a − b| lane-wise, exact for any pair of 16-bit values.
  static VecU16 absdiff(VecU16 a, VecU16 b) {
    return {static_cast<std::uint16_t>(a.v > b.v ? a.v - b.v : b.v - a.v)};
  }
  static VecU16 max(VecU16 a, VecU16 b) { return {a.v > b.v ? a.v : b.v}; }
  /// All-ones lanes where a == b, zero elsewhere.
  static VecU16 eq(VecU16 a, VecU16 b) {
    return {static_cast<std::uint16_t>(a.v == b.v ? 0xffff : 0)};
  }
  /// Whether any lane is nonzero.
  bool any() const { return v != 0; }
  /// The largest lane.
  std::uint16_t reduce_max() const { return v; }

  /// Writes kLanes bytes: out[i] = (a[i] > b[i]) ? 1 : 0.
  static void store_gt01(VecU16 a, VecU16 b, std::uint8_t* out) {
    out[0] = a.v > b.v ? 1 : 0;
  }
};

#if defined(SLJ_SIMD_SSE2)
template <>
struct VecU16<Sse2Backend> {
  static constexpr int kLanes = 8;
  __m128i v;

  static VecU16 load(const std::uint16_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static VecU16 broadcast(std::uint16_t x) { return {_mm_set1_epi16(static_cast<short>(x))}; }
  static VecU16 load_u8(const std::uint8_t* p) {
    const __m128i bytes = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p));
    return {_mm_unpacklo_epi8(bytes, _mm_setzero_si128())};
  }
  void store(std::uint16_t* p) const { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v); }

  friend VecU16 operator+(VecU16 a, VecU16 b) { return {_mm_add_epi16(a.v, b.v)}; }
  friend VecU16 operator-(VecU16 a, VecU16 b) { return {_mm_sub_epi16(a.v, b.v)}; }
  friend VecU16 operator*(VecU16 a, VecU16 b) { return {_mm_mullo_epi16(a.v, b.v)}; }
  friend VecU16 operator|(VecU16 a, VecU16 b) { return {_mm_or_si128(a.v, b.v)}; }

  static VecU16 absdiff(VecU16 a, VecU16 b) {
    // One of the two saturating differences is zero.
    return {_mm_or_si128(_mm_subs_epu16(a.v, b.v), _mm_subs_epu16(b.v, a.v))};
  }
  // Signed max: identical to unsigned for lanes <= 32767 (the contract).
  static VecU16 max(VecU16 a, VecU16 b) { return {_mm_max_epi16(a.v, b.v)}; }
  static VecU16 eq(VecU16 a, VecU16 b) { return {_mm_cmpeq_epi16(a.v, b.v)}; }
  bool any() const { return _mm_movemask_epi8(v) != 0; }
  std::uint16_t reduce_max() const {
    __m128i m = _mm_max_epi16(v, _mm_srli_si128(v, 8));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 4));
    m = _mm_max_epi16(m, _mm_srli_si128(m, 2));
    return static_cast<std::uint16_t>(_mm_cvtsi128_si32(m));
  }

  static void store_gt01(VecU16 a, VecU16 b, std::uint8_t* out) {
    // Signed compare: identical to unsigned for lanes <= 32767 (the contract).
    const __m128i gt = _mm_cmpgt_epi16(a.v, b.v);
    const __m128i one = _mm_and_si128(gt, _mm_set1_epi16(1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out), _mm_packus_epi16(one, _mm_setzero_si128()));
  }
};
#endif  // SLJ_SIMD_SSE2

// ---- VecU32: a fixed-width vector of 32-bit words --------------------------
//
// Backs the MT19937 twist and temper (synth/rng.cpp). Arithmetic wraps at
// 2^32 and shifts are logical, exactly as on uint32_t.

template <class Backend>
struct VecU32;

template <>
struct VecU32<ScalarBackend> {
  static constexpr int kLanes = 1;
  std::uint32_t v;

  static VecU32 load(const std::uint32_t* p) { return {*p}; }
  static VecU32 broadcast(std::uint32_t x) { return {x}; }
  void store(std::uint32_t* p) const { *p = v; }

  friend VecU32 operator&(VecU32 a, VecU32 b) { return {a.v & b.v}; }
  friend VecU32 operator|(VecU32 a, VecU32 b) { return {a.v | b.v}; }
  friend VecU32 operator^(VecU32 a, VecU32 b) { return {a.v ^ b.v}; }
  friend VecU32 operator-(VecU32 a, VecU32 b) { return {a.v - b.v}; }
  template <int k>
  VecU32 shr() const { return {v >> k}; }
  template <int k>
  VecU32 shl() const { return {v << k}; }
};

#if defined(SLJ_SIMD_SSE2)
template <>
struct VecU32<Sse2Backend> {
  static constexpr int kLanes = 4;
  __m128i v;

  static VecU32 load(const std::uint32_t* p) {
    return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
  }
  static VecU32 broadcast(std::uint32_t x) { return {_mm_set1_epi32(static_cast<int>(x))}; }
  void store(std::uint32_t* p) const { _mm_storeu_si128(reinterpret_cast<__m128i*>(p), v); }

  friend VecU32 operator&(VecU32 a, VecU32 b) { return {_mm_and_si128(a.v, b.v)}; }
  friend VecU32 operator|(VecU32 a, VecU32 b) { return {_mm_or_si128(a.v, b.v)}; }
  friend VecU32 operator^(VecU32 a, VecU32 b) { return {_mm_xor_si128(a.v, b.v)}; }
  friend VecU32 operator-(VecU32 a, VecU32 b) { return {_mm_sub_epi32(a.v, b.v)}; }
  template <int k>
  VecU32 shr() const { return {_mm_srli_epi32(v, k)}; }
  template <int k>
  VecU32 shl() const { return {_mm_slli_epi32(v, k)}; }
};
#endif  // SLJ_SIMD_SSE2

// ---- VecF64: a fixed-width vector of doubles -------------------------------
//
// Decodes MT19937 words into the polar method's uniforms (synth/rng.cpp).
// Every arithmetic operation rounds once, as the scalar operator does (see
// the contract at the top). min takes the smaller lane; callers never pass
// NaN.

template <class Backend>
struct VecF64;

template <>
struct VecF64<ScalarBackend> {
  static constexpr int kLanes = 1;
  double v;

  static VecF64 broadcast(double x) { return {x}; }
  void store(double* p) const { *p = v; }

  /// Loads 2·kLanes words: `even` gets p[0], p[2], … and `odd` p[1], p[3], …,
  /// each converted exactly to a double.
  static void load_u32_pairs(const std::uint32_t* p, VecF64& even, VecF64& odd) {
    even = {static_cast<double>(p[0])};
    odd = {static_cast<double>(p[1])};
  }

  friend VecF64 operator+(VecF64 a, VecF64 b) { return {a.v + b.v}; }
  friend VecF64 operator-(VecF64 a, VecF64 b) { return {a.v - b.v}; }
  friend VecF64 operator*(VecF64 a, VecF64 b) { return {a.v * b.v}; }
  static VecF64 min(VecF64 a, VecF64 b) { return {b.v < a.v ? b.v : a.v}; }
};

#if defined(SLJ_SIMD_SSE2)
template <>
struct VecF64<Sse2Backend> {
  static constexpr int kLanes = 2;
  __m128d v;

  static VecF64 broadcast(double x) { return {_mm_set1_pd(x)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }

  static void load_u32_pairs(const std::uint32_t* p, VecF64& even, VecF64& odd) {
    // Each 64-bit lane holds an even word below an odd one. A word placed
    // in the low mantissa bits of 2^52 reads as 2^52 + word; subtracting
    // 2^52 leaves the word, exactly.
    const __m128i w = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    const __m128i two52 = _mm_set1_epi64x(0x4330000000000000);
    const __m128d bias = _mm_set1_pd(0x1p52);
    const __m128i low = _mm_and_si128(w, _mm_set1_epi64x(0xffffffff));
    even = {_mm_sub_pd(_mm_castsi128_pd(_mm_or_si128(low, two52)), bias)};
    odd = {_mm_sub_pd(_mm_castsi128_pd(_mm_or_si128(_mm_srli_epi64(w, 32), two52)), bias)};
  }

  friend VecF64 operator+(VecF64 a, VecF64 b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecF64 operator-(VecF64 a, VecF64 b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecF64 operator*(VecF64 a, VecF64 b) { return {_mm_mul_pd(a.v, b.v)}; }
  static VecF64 min(VecF64 a, VecF64 b) { return {_mm_min_pd(a.v, b.v)}; }
};
#endif  // SLJ_SIMD_SSE2

// ---- VecF32: a fixed-width vector of floats --------------------------------
//
// The renderer's approximate noise lanes (synth/noise_lanes.hpp): the polar
// method's scale through a polynomial log, and each channel's value and
// byte. Every arithmetic operation rounds once, as the scalar float
// operator does, and each conversion from double rounds to nearest, so
// `Active` gives the bits of `ScalarBackend` (tests/test_simd.cpp,
// SimdF32.*). What these lanes compute is an estimate: it may decide an
// output only where a proven error bound keeps it clear of every rounding
// edge (see the top of this file).

template <class Backend>
struct VecF32;

/// Splits a positive normal double r = 2^e·s with s in [√½, √2]: the
/// exponent e and the fraction s − 1, both as doubles. s − 1 is exact, so
/// a log of r loses nothing near r = 1 before the caller rounds to float.
inline void split_log2(double r, double& exponent, double& fraction) {
  constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;
  const auto bits = std::bit_cast<std::uint64_t>(r);
  double s = std::bit_cast<double>((bits & 0x000fffffffffffffu) | 0x3ff0000000000000u);
  exponent = static_cast<double>(static_cast<int>(bits >> 52) - 1023);
  if (s > kSqrt2) {
    s *= 0.5;
    exponent += 1.0;
  }
  fraction = s - 1.0;
}

template <>
struct VecF32<ScalarBackend> {
  static constexpr int kLanes = 1;
  float v;

  static VecF32 load(const float* p) { return {*p}; }
  static VecF32 broadcast(float x) { return {x}; }
  void store(float* p) const { *p = v; }

  /// kLanes doubles, each rounded to the nearest float.
  static VecF32 load_f64(const double* p) { return {static_cast<float>(*p)}; }
  /// split_log2 of kLanes doubles (positive, normal), each part then
  /// rounded to the nearest float.
  static void load_log2_split(const double* p, VecF32& exponent, VecF32& fraction) {
    double e = 0.0, f = 0.0;
    split_log2(*p, e, f);
    exponent = {static_cast<float>(e)};
    fraction = {static_cast<float>(f)};
  }
  /// Stores a0, b0, a1, b1, … (2·kLanes floats).
  static void store_interleaved(VecF32 a, VecF32 b, float* out) {
    out[0] = a.v;
    out[1] = b.v;
  }
  /// Each lane rounded toward zero to a whole number. |lanes| < 2^31.
  static VecF32 trunc(VecF32 a) { return {static_cast<float>(static_cast<std::int32_t>(a.v))}; }
  /// Bit i set where lane i of a is below lane i of b.
  static unsigned lt_mask(VecF32 a, VecF32 b) { return a.v < b.v ? 1u : 0u; }
  /// Stores kLanes bytes, each lane truncated toward zero and saturated to
  /// [0, 255]: `static_cast<std::uint8_t>(std::clamp(v, 0, 255))`. |lanes| < 2^31.
  void store_trunc_u8(std::uint8_t* out) const {
    const std::int32_t i = static_cast<std::int32_t>(v);
    *out = static_cast<std::uint8_t>(i < 0 ? 0 : (i > 255 ? 255 : i));
  }

  friend VecF32 operator+(VecF32 a, VecF32 b) { return {a.v + b.v}; }
  friend VecF32 operator-(VecF32 a, VecF32 b) { return {a.v - b.v}; }
  friend VecF32 operator*(VecF32 a, VecF32 b) { return {a.v * b.v}; }
  friend VecF32 operator/(VecF32 a, VecF32 b) { return {a.v / b.v}; }
  static VecF32 sqrt(VecF32 a) { return {std::sqrt(a.v)}; }
};

#if defined(SLJ_SIMD_SSE2)
template <>
struct VecF32<Sse2Backend> {
  static constexpr int kLanes = 4;
  __m128 v;

  static VecF32 load(const float* p) { return {_mm_loadu_ps(p)}; }
  static VecF32 broadcast(float x) { return {_mm_set1_ps(x)}; }
  void store(float* p) const { _mm_storeu_ps(p, v); }

  static VecF32 load_f64(const double* p) {
    return {_mm_movelh_ps(_mm_cvtpd_ps(_mm_loadu_pd(p)), _mm_cvtpd_ps(_mm_loadu_pd(p + 2)))};
  }
  static void load_log2_split(const double* p, VecF32& exponent, VecF32& fraction) {
    __m128d e0, f0, e1, f1;
    split2(_mm_loadu_pd(p), e0, f0);
    split2(_mm_loadu_pd(p + 2), e1, f1);
    exponent = {_mm_movelh_ps(_mm_cvtpd_ps(e0), _mm_cvtpd_ps(e1))};
    fraction = {_mm_movelh_ps(_mm_cvtpd_ps(f0), _mm_cvtpd_ps(f1))};
  }
  static void store_interleaved(VecF32 a, VecF32 b, float* out) {
    _mm_storeu_ps(out, _mm_unpacklo_ps(a.v, b.v));
    _mm_storeu_ps(out + 4, _mm_unpackhi_ps(a.v, b.v));
  }
  static VecF32 trunc(VecF32 a) { return {_mm_cvtepi32_ps(_mm_cvttps_epi32(a.v))}; }
  static unsigned lt_mask(VecF32 a, VecF32 b) {
    return static_cast<unsigned>(_mm_movemask_ps(_mm_cmplt_ps(a.v, b.v)));
  }
  void store_trunc_u8(std::uint8_t* out) const {
    const __m128i i32 = _mm_cvttps_epi32(v);
    const __m128i i16 = _mm_packs_epi32(i32, i32);
    const auto word = static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_packus_epi16(i16, i16)));
    std::memcpy(out, &word, sizeof word);
  }

  friend VecF32 operator+(VecF32 a, VecF32 b) { return {_mm_add_ps(a.v, b.v)}; }
  friend VecF32 operator-(VecF32 a, VecF32 b) { return {_mm_sub_ps(a.v, b.v)}; }
  friend VecF32 operator*(VecF32 a, VecF32 b) { return {_mm_mul_ps(a.v, b.v)}; }
  friend VecF32 operator/(VecF32 a, VecF32 b) { return {_mm_div_ps(a.v, b.v)}; }
  static VecF32 sqrt(VecF32 a) { return {_mm_sqrt_ps(a.v)}; }

 private:
  // split_log2 on two lanes. The biased exponent k placed in the low
  // mantissa bits of 2^52 reads 2^52 + k, so subtracting 2^52 + 1023
  // leaves k − 1023, exactly.
  static void split2(__m128d r, __m128d& exponent, __m128d& fraction) {
    const __m128i bits = _mm_castpd_si128(r);
    const __m128d one = _mm_set1_pd(1.0);
    const __m128d s = _mm_castsi128_pd(
        _mm_or_si128(_mm_and_si128(bits, _mm_set1_epi64x(0x000fffffffffffff)),
                     _mm_set1_epi64x(0x3ff0000000000000)));
    const __m128d big = _mm_cmpgt_pd(s, _mm_set1_pd(0x1.6a09e667f3bcdp+0));
    const __m128d k = _mm_castsi128_pd(
        _mm_or_si128(_mm_srli_epi64(bits, 52), _mm_set1_epi64x(0x4330000000000000)));
    exponent = _mm_add_pd(_mm_sub_pd(k, _mm_set1_pd(0x1p52 + 1023.0)), _mm_and_pd(big, one));
    const __m128d scale = _mm_or_pd(_mm_and_pd(big, _mm_set1_pd(0.5)), _mm_andnot_pd(big, one));
    fraction = _mm_sub_pd(_mm_mul_pd(s, scale), one);
  }
};
#endif  // SLJ_SIMD_SSE2

// ---- byte-plane primitives -------------------------------------------------

/// Index of the first nonzero byte in [p, p + n), or n when all are zero.
/// The workhorse behind sparse row scanning: silhouette / skeleton planes
/// are overwhelmingly background, so whole vector blocks are skipped per
/// test. The result is an index — trivially identical across backends.
template <class Backend>
inline std::size_t find_nonzero(const std::uint8_t* p, std::size_t n) {
  using V = VecU8<Backend>;
  std::size_t i = 0;
  while (i + V::kLanes <= n) {
    if (V::load(p + i).any()) break;
    i += V::kLanes;
  }
  // Scalar sweep inside the hit block (and over the tail).
  for (; i < n; ++i) {
    if (p[i] != 0) return i;
  }
  return n;
}

/// out[i] = (labels[i] == value) ? 1 : 0 for i in [0, n). The
/// largest-component mask writeback.
template <class Backend>
inline void store_equal01_i32(const int* labels, int value, std::uint8_t* out, std::size_t n);

template <>
inline void store_equal01_i32<ScalarBackend>(const int* labels, int value, std::uint8_t* out,
                                             std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = labels[i] == value ? 1 : 0;
}

#if defined(SLJ_SIMD_SSE2)
template <>
inline void store_equal01_i32<Sse2Backend>(const int* labels, int value, std::uint8_t* out,
                                           std::size_t n) {
  const __m128i needle = _mm_set1_epi32(value);
  const __m128i one = _mm_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m128i packed16[4];
    for (int b = 0; b < 4; ++b) {
      const __m128i eq =
          _mm_cmpeq_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(labels + i + 4 * b)),
                          needle);
      packed16[b] = _mm_and_si128(eq, one);
    }
    const __m128i lo = _mm_packs_epi32(packed16[0], packed16[1]);
    const __m128i hi = _mm_packs_epi32(packed16[2], packed16[3]);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm_packus_epi16(lo, hi));
  }
  for (; i < n; ++i) out[i] = labels[i] == value ? 1 : 0;
}
#endif

/// out[i] = (src[i] != 0 || closed[i] == 0) ? 1 : 0 — the hole-fill
/// composition: foreground stays, unreached background becomes foreground.
template <class Backend>
inline void store_fill01_u8(const std::uint8_t* src, const std::uint8_t* closed, std::uint8_t* out,
                            std::size_t n);

template <>
inline void store_fill01_u8<ScalarBackend>(const std::uint8_t* src, const std::uint8_t* closed,
                                           std::uint8_t* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (src[i] != 0 || closed[i] == 0) ? 1 : 0;
}

#if defined(SLJ_SIMD_SSE2)
template <>
inline void store_fill01_u8<Sse2Backend>(const std::uint8_t* src, const std::uint8_t* closed,
                                         std::uint8_t* out, std::size_t n) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i one = _mm_set1_epi8(1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i s = _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i c = _mm_loadu_si128(reinterpret_cast<const __m128i*>(closed + i));
    const __m128i src_zero = _mm_cmpeq_epi8(s, zero);       // 0xFF where src == 0
    const __m128i closed_zero = _mm_cmpeq_epi8(c, zero);    // 0xFF where closed == 0
    const __m128i keep = _mm_or_si128(_mm_andnot_si128(src_zero, _mm_set1_epi8(-1)), closed_zero);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), _mm_and_si128(keep, one));
  }
  for (; i < n; ++i) out[i] = (src[i] != 0 || closed[i] == 0) ? 1 : 0;
}
#endif

/// Splits n interleaved RGB pixels (3n bytes) into three byte planes:
/// r[i] = rgb[3i], g[i] = rgb[3i + 1], b[i] = rgb[3i + 2]. A byte shuffle,
/// so every backend writes the same bytes.
template <class Backend>
inline void deinterleave_rgb(const std::uint8_t* rgb, std::uint8_t* r, std::uint8_t* g,
                             std::uint8_t* b, std::size_t n);

template <>
inline void deinterleave_rgb<ScalarBackend>(const std::uint8_t* rgb, std::uint8_t* r,
                                            std::uint8_t* g, std::uint8_t* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    r[i] = rgb[3 * i];
    g[i] = rgb[3 * i + 1];
    b[i] = rgb[3 * i + 2];
  }
}

#if defined(SLJ_SIMD_SSE2)
namespace detail {
// One riffle of 48 bytes held as three vectors: the first 24 bytes
// interleaved with the last 24. A riffle sends byte p to 2p mod 47 (byte 47
// stays), so four send 3i + c to 16c + i: channel c of 16 pixels lands in
// vector c.
inline void riffle48(__m128i& v0, __m128i& v1, __m128i& v2) {
  const __m128i n0 = _mm_unpacklo_epi8(v0, _mm_unpackhi_epi64(v1, v1));
  const __m128i n1 = _mm_unpacklo_epi8(_mm_unpackhi_epi64(v0, v0), v2);
  const __m128i n2 = _mm_unpacklo_epi8(v1, _mm_unpackhi_epi64(v2, v2));
  v0 = n0;
  v1 = n1;
  v2 = n2;
}
}  // namespace detail

template <>
inline void deinterleave_rgb<Sse2Backend>(const std::uint8_t* rgb, std::uint8_t* r,
                                          std::uint8_t* g, std::uint8_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const std::uint8_t* p = rgb + 3 * i;
    __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    __m128i v2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
    for (int k = 0; k < 4; ++k) detail::riffle48(v0, v1, v2);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(r + i), v0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(g + i), v1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(b + i), v2);
  }
  deinterleave_rgb<ScalarBackend>(rgb + 3 * i, r + i, g + i, b + i, n - i);
}
#endif

}  // namespace slj::simd
