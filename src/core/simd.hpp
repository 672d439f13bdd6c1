// Portable fixed-width SIMD abstraction for the per-frame vision kernels and
// the synthetic camera's noise kernels.
//
// Backends: SSE2 (16 u8 / 8 u16 / 4 u32 / 2 f64 lanes), AVX2 (32 u8 / 16 u16 /
// 8 u32 / 4 f64 lanes), NEON (16 u8 / 8 u16 / 4 u32 / 2 f64 lanes), and a
// scalar fallback that is always compiled. The active backend is chosen at
// configure time by the SLJ_SIMD CMake option:
//
//   AUTO (default)  whatever instruction sets the compiler already targets
//                   (__AVX2__ / __SSE2__ / __ARM_NEON preprocessor macros)
//   OFF / SCALAR    force the scalar fallback (defines SLJ_SIMD_FORCE_SCALAR)
//   SSE2 / AVX2     x86 backends, adding -msse2 / -mavx2
//   NEON            ARM backend (the macros must already be available)
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
// (VecU32: wrapping, as uint32_t does), and every double operation (VecF64)
// is one IEEE-754 correctly rounded add, subtract, multiply, divide or square
// root per lane, the same rounding the scalar expression gets. Nothing here
// fuses a multiply into an add, and no build flag may let the compiler do so
// (no -mfma): a fused multiply-add rounds once where the scalar code rounds
// twice, and the rendered corpus digests would move.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if !defined(SLJ_SIMD_FORCE_SCALAR)
#if defined(__AVX2__)
#define SLJ_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define SLJ_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#define SLJ_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif

namespace slj::simd {

// ---- backend tags ----------------------------------------------------------

struct ScalarBackend {};
#if defined(SLJ_SIMD_AVX2)
struct Avx2Backend {};
using Active = Avx2Backend;
#elif defined(SLJ_SIMD_SSE2)
struct Sse2Backend {};
using Active = Sse2Backend;
#elif defined(SLJ_SIMD_NEON)
struct NeonBackend {};
using Active = NeonBackend;
#else
using Active = ScalarBackend;
#endif

/// Human-readable name of the configured backend (for telemetry / bench JSON).
inline const char* backend_name() {
#if defined(SLJ_SIMD_AVX2)
  return "avx2";
#elif defined(SLJ_SIMD_SSE2)
  return "sse2";
#elif defined(SLJ_SIMD_NEON)
  return "neon";
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

#if defined(SLJ_SIMD_AVX2)
template <>
struct VecU8<Avx2Backend> {
  static constexpr int kLanes = 32;
  __m256i v;

  static VecU8 load(const std::uint8_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  bool any() const {
    const __m256i zero = _mm256_setzero_si256();
    return static_cast<unsigned>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(v, zero))) != 0xffffffffu;
  }
};
#endif

#if defined(SLJ_SIMD_NEON)
template <>
struct VecU8<NeonBackend> {
  static constexpr int kLanes = 16;
  uint8x16_t v;

  static VecU8 load(const std::uint8_t* p) { return {vld1q_u8(p)}; }
  bool any() const { return vmaxvq_u8(v) != 0; }
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

#if defined(SLJ_SIMD_AVX2)
template <>
struct VecU16<Avx2Backend> {
  static constexpr int kLanes = 16;
  __m256i v;

  static VecU16 load(const std::uint16_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static VecU16 broadcast(std::uint16_t x) {
    return {_mm256_set1_epi16(static_cast<short>(x))};
  }
  static VecU16 load_u8(const std::uint8_t* p) {
    return {_mm256_cvtepu8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)))};
  }
  void store(std::uint16_t* p) const {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }

  friend VecU16 operator+(VecU16 a, VecU16 b) { return {_mm256_add_epi16(a.v, b.v)}; }
  friend VecU16 operator-(VecU16 a, VecU16 b) { return {_mm256_sub_epi16(a.v, b.v)}; }
  friend VecU16 operator*(VecU16 a, VecU16 b) { return {_mm256_mullo_epi16(a.v, b.v)}; }
  friend VecU16 operator|(VecU16 a, VecU16 b) { return {_mm256_or_si256(a.v, b.v)}; }

  static VecU16 absdiff(VecU16 a, VecU16 b) {
    return {_mm256_or_si256(_mm256_subs_epu16(a.v, b.v), _mm256_subs_epu16(b.v, a.v))};
  }
  static VecU16 max(VecU16 a, VecU16 b) { return {_mm256_max_epu16(a.v, b.v)}; }
  static VecU16 eq(VecU16 a, VecU16 b) { return {_mm256_cmpeq_epi16(a.v, b.v)}; }
  bool any() const { return _mm256_movemask_epi8(v) != 0; }
  std::uint16_t reduce_max() const {
    __m128i m = _mm_max_epu16(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
    m = _mm_max_epu16(m, _mm_srli_si128(m, 8));
    m = _mm_max_epu16(m, _mm_srli_si128(m, 4));
    m = _mm_max_epu16(m, _mm_srli_si128(m, 2));
    return static_cast<std::uint16_t>(_mm_cvtsi128_si32(m));
  }

  static void store_gt01(VecU16 a, VecU16 b, std::uint8_t* out) {
    // Signed compare: identical to unsigned for lanes <= 32767 (the contract).
    const __m256i gt = _mm256_cmpgt_epi16(a.v, b.v);
    const __m256i one = _mm256_and_si256(gt, _mm256_set1_epi16(1));
    // packus interleaves 128-bit halves; the qword permute re-compacts the
    // 16 result bytes into the low half before the store.
    const __m256i packed = _mm256_packus_epi16(one, _mm256_setzero_si256());
    const __m256i fixed = _mm256_permute4x64_epi64(packed, _MM_SHUFFLE(3, 1, 2, 0));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out), _mm256_castsi256_si128(fixed));
  }
};
#endif  // SLJ_SIMD_AVX2

#if defined(SLJ_SIMD_NEON)
template <>
struct VecU16<NeonBackend> {
  static constexpr int kLanes = 8;
  uint16x8_t v;

  static VecU16 load(const std::uint16_t* p) { return {vld1q_u16(p)}; }
  static VecU16 broadcast(std::uint16_t x) { return {vdupq_n_u16(x)}; }
  static VecU16 load_u8(const std::uint8_t* p) { return {vmovl_u8(vld1_u8(p))}; }
  void store(std::uint16_t* p) const { vst1q_u16(p, v); }

  friend VecU16 operator+(VecU16 a, VecU16 b) { return {vaddq_u16(a.v, b.v)}; }
  friend VecU16 operator-(VecU16 a, VecU16 b) { return {vsubq_u16(a.v, b.v)}; }
  friend VecU16 operator*(VecU16 a, VecU16 b) { return {vmulq_u16(a.v, b.v)}; }
  friend VecU16 operator|(VecU16 a, VecU16 b) { return {vorrq_u16(a.v, b.v)}; }

  static VecU16 absdiff(VecU16 a, VecU16 b) { return {vabdq_u16(a.v, b.v)}; }
  static VecU16 max(VecU16 a, VecU16 b) { return {vmaxq_u16(a.v, b.v)}; }
  static VecU16 eq(VecU16 a, VecU16 b) { return {vceqq_u16(a.v, b.v)}; }
  bool any() const { return vmaxvq_u16(v) != 0; }
  std::uint16_t reduce_max() const { return vmaxvq_u16(v); }

  static void store_gt01(VecU16 a, VecU16 b, std::uint8_t* out) {
    const uint16x8_t gt = vcgtq_u16(a.v, b.v);
    vst1_u8(out, vmovn_u16(vandq_u16(gt, vdupq_n_u16(1))));
  }
};
#endif  // SLJ_SIMD_NEON

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

#if defined(SLJ_SIMD_AVX2)
template <>
struct VecU32<Avx2Backend> {
  static constexpr int kLanes = 8;
  __m256i v;

  static VecU32 load(const std::uint32_t* p) {
    return {_mm256_loadu_si256(reinterpret_cast<const __m256i*>(p))};
  }
  static VecU32 broadcast(std::uint32_t x) { return {_mm256_set1_epi32(static_cast<int>(x))}; }
  void store(std::uint32_t* p) const { _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v); }

  friend VecU32 operator&(VecU32 a, VecU32 b) { return {_mm256_and_si256(a.v, b.v)}; }
  friend VecU32 operator|(VecU32 a, VecU32 b) { return {_mm256_or_si256(a.v, b.v)}; }
  friend VecU32 operator^(VecU32 a, VecU32 b) { return {_mm256_xor_si256(a.v, b.v)}; }
  friend VecU32 operator-(VecU32 a, VecU32 b) { return {_mm256_sub_epi32(a.v, b.v)}; }
  template <int k>
  VecU32 shr() const { return {_mm256_srli_epi32(v, k)}; }
  template <int k>
  VecU32 shl() const { return {_mm256_slli_epi32(v, k)}; }
};
#endif  // SLJ_SIMD_AVX2

#if defined(SLJ_SIMD_NEON)
template <>
struct VecU32<NeonBackend> {
  static constexpr int kLanes = 4;
  uint32x4_t v;

  static VecU32 load(const std::uint32_t* p) { return {vld1q_u32(p)}; }
  static VecU32 broadcast(std::uint32_t x) { return {vdupq_n_u32(x)}; }
  void store(std::uint32_t* p) const { vst1q_u32(p, v); }

  friend VecU32 operator&(VecU32 a, VecU32 b) { return {vandq_u32(a.v, b.v)}; }
  friend VecU32 operator|(VecU32 a, VecU32 b) { return {vorrq_u32(a.v, b.v)}; }
  friend VecU32 operator^(VecU32 a, VecU32 b) { return {veorq_u32(a.v, b.v)}; }
  friend VecU32 operator-(VecU32 a, VecU32 b) { return {vsubq_u32(a.v, b.v)}; }
  template <int k>
  VecU32 shr() const { return {vshrq_n_u32(v, k)}; }
  template <int k>
  VecU32 shl() const { return {vshlq_n_u32(v, k)}; }
};
#endif  // SLJ_SIMD_NEON

// ---- VecF64: a fixed-width vector of doubles -------------------------------
//
// Backs the renderer's noise: decoding MT19937 words into uniforms, the polar
// method's scale and the clamp of each channel to a byte. Every arithmetic
// operation rounds once, as the scalar operator does (see the contract at
// the top). min/max take the smaller/larger lane; callers never pass NaN.

template <class Backend>
struct VecF64;

template <>
struct VecF64<ScalarBackend> {
  static constexpr int kLanes = 1;
  double v;

  static VecF64 load(const double* p) { return {*p}; }
  static VecF64 broadcast(double x) { return {x}; }
  void store(double* p) const { *p = v; }

  /// Loads 2·kLanes words: `even` gets p[0], p[2], … and `odd` p[1], p[3], …,
  /// each converted exactly to a double.
  static void load_u32_pairs(const std::uint32_t* p, VecF64& even, VecF64& odd) {
    even = {static_cast<double>(p[0])};
    odd = {static_cast<double>(p[1])};
  }
  /// Stores a0, b0, a1, b1, … (2·kLanes doubles).
  static void store_interleaved(VecF64 a, VecF64 b, double* out) {
    out[0] = a.v;
    out[1] = b.v;
  }
  /// Stores kLanes bytes, each lane truncated toward zero as
  /// `static_cast<std::uint8_t>` does. Lanes must lie in [0, 255].
  void store_trunc_u8(std::uint8_t* out) const { *out = static_cast<std::uint8_t>(v); }

  friend VecF64 operator+(VecF64 a, VecF64 b) { return {a.v + b.v}; }
  friend VecF64 operator-(VecF64 a, VecF64 b) { return {a.v - b.v}; }
  friend VecF64 operator*(VecF64 a, VecF64 b) { return {a.v * b.v}; }
  friend VecF64 operator/(VecF64 a, VecF64 b) { return {a.v / b.v}; }
  static VecF64 sqrt(VecF64 a) { return {std::sqrt(a.v)}; }
  static VecF64 min(VecF64 a, VecF64 b) { return {b.v < a.v ? b.v : a.v}; }
  static VecF64 max(VecF64 a, VecF64 b) { return {a.v < b.v ? b.v : a.v}; }
};

#if defined(SLJ_SIMD_SSE2)
template <>
struct VecF64<Sse2Backend> {
  static constexpr int kLanes = 2;
  __m128d v;

  static VecF64 load(const double* p) { return {_mm_loadu_pd(p)}; }
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
  static void store_interleaved(VecF64 a, VecF64 b, double* out) {
    _mm_storeu_pd(out, _mm_unpacklo_pd(a.v, b.v));
    _mm_storeu_pd(out + 2, _mm_unpackhi_pd(a.v, b.v));
  }
  void store_trunc_u8(std::uint8_t* out) const {
    const __m128i i16 = _mm_packs_epi32(_mm_cvttpd_epi32(v), _mm_setzero_si128());
    const __m128i bytes = _mm_packus_epi16(i16, i16);
    const auto word = static_cast<std::uint16_t>(_mm_cvtsi128_si32(bytes));
    std::memcpy(out, &word, sizeof word);
  }

  friend VecF64 operator+(VecF64 a, VecF64 b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecF64 operator-(VecF64 a, VecF64 b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecF64 operator*(VecF64 a, VecF64 b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend VecF64 operator/(VecF64 a, VecF64 b) { return {_mm_div_pd(a.v, b.v)}; }
  static VecF64 sqrt(VecF64 a) { return {_mm_sqrt_pd(a.v)}; }
  static VecF64 min(VecF64 a, VecF64 b) { return {_mm_min_pd(a.v, b.v)}; }
  static VecF64 max(VecF64 a, VecF64 b) { return {_mm_max_pd(a.v, b.v)}; }
};
#endif  // SLJ_SIMD_SSE2

#if defined(SLJ_SIMD_AVX2)
template <>
struct VecF64<Avx2Backend> {
  static constexpr int kLanes = 4;
  __m256d v;

  static VecF64 load(const double* p) { return {_mm256_loadu_pd(p)}; }
  static VecF64 broadcast(double x) { return {_mm256_set1_pd(x)}; }
  void store(double* p) const { _mm256_storeu_pd(p, v); }

  static void load_u32_pairs(const std::uint32_t* p, VecF64& even, VecF64& odd) {
    // The 2^52 bias of the SSE2 backend, on four 64-bit lanes.
    const __m256i w = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    const __m256i two52 = _mm256_set1_epi64x(0x4330000000000000);
    const __m256d bias = _mm256_set1_pd(0x1p52);
    const __m256i low = _mm256_and_si256(w, _mm256_set1_epi64x(0xffffffff));
    even = {_mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(low, two52)), bias)};
    odd = {_mm256_sub_pd(_mm256_castsi256_pd(_mm256_or_si256(_mm256_srli_epi64(w, 32), two52)),
                         bias)};
  }
  static void store_interleaved(VecF64 a, VecF64 b, double* out) {
    const __m256d lo = _mm256_unpacklo_pd(a.v, b.v);  // a0 b0 a2 b2
    const __m256d hi = _mm256_unpackhi_pd(a.v, b.v);  // a1 b1 a3 b3
    _mm256_storeu_pd(out, _mm256_permute2f128_pd(lo, hi, 0x20));
    _mm256_storeu_pd(out + 4, _mm256_permute2f128_pd(lo, hi, 0x31));
  }
  void store_trunc_u8(std::uint8_t* out) const {
    const __m128i i16 = _mm_packs_epi32(_mm256_cvttpd_epi32(v), _mm_setzero_si128());
    const __m128i bytes = _mm_packus_epi16(i16, i16);
    const auto word = static_cast<std::uint32_t>(_mm_cvtsi128_si32(bytes));
    std::memcpy(out, &word, sizeof word);
  }

  friend VecF64 operator+(VecF64 a, VecF64 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecF64 operator-(VecF64 a, VecF64 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecF64 operator*(VecF64 a, VecF64 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend VecF64 operator/(VecF64 a, VecF64 b) { return {_mm256_div_pd(a.v, b.v)}; }
  static VecF64 sqrt(VecF64 a) { return {_mm256_sqrt_pd(a.v)}; }
  static VecF64 min(VecF64 a, VecF64 b) { return {_mm256_min_pd(a.v, b.v)}; }
  static VecF64 max(VecF64 a, VecF64 b) { return {_mm256_max_pd(a.v, b.v)}; }
};
#endif  // SLJ_SIMD_AVX2

#if defined(SLJ_SIMD_NEON)
template <>
struct VecF64<NeonBackend> {
  static constexpr int kLanes = 2;
  float64x2_t v;

  static VecF64 load(const double* p) { return {vld1q_f64(p)}; }
  static VecF64 broadcast(double x) { return {vdupq_n_f64(x)}; }
  void store(double* p) const { vst1q_f64(p, v); }

  static void load_u32_pairs(const std::uint32_t* p, VecF64& even, VecF64& odd) {
    const uint32x2x2_t w = vld2_u32(p);
    even = {vcvtq_f64_u64(vmovl_u32(w.val[0]))};
    odd = {vcvtq_f64_u64(vmovl_u32(w.val[1]))};
  }
  static void store_interleaved(VecF64 a, VecF64 b, double* out) {
    vst2q_f64(out, (float64x2x2_t{{a.v, b.v}}));
  }
  void store_trunc_u8(std::uint8_t* out) const {
    const uint64x2_t u = vcvtq_u64_f64(v);
    out[0] = static_cast<std::uint8_t>(vgetq_lane_u64(u, 0));
    out[1] = static_cast<std::uint8_t>(vgetq_lane_u64(u, 1));
  }

  friend VecF64 operator+(VecF64 a, VecF64 b) { return {vaddq_f64(a.v, b.v)}; }
  friend VecF64 operator-(VecF64 a, VecF64 b) { return {vsubq_f64(a.v, b.v)}; }
  friend VecF64 operator*(VecF64 a, VecF64 b) { return {vmulq_f64(a.v, b.v)}; }
  friend VecF64 operator/(VecF64 a, VecF64 b) { return {vdivq_f64(a.v, b.v)}; }
  static VecF64 sqrt(VecF64 a) { return {vsqrtq_f64(a.v)}; }
  static VecF64 min(VecF64 a, VecF64 b) { return {vminq_f64(a.v, b.v)}; }
  static VecF64 max(VecF64 a, VecF64 b) { return {vmaxq_f64(a.v, b.v)}; }
};
#endif  // SLJ_SIMD_NEON

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

#if defined(SLJ_SIMD_AVX2)
template <>
inline void store_equal01_i32<Avx2Backend>(const int* labels, int value, std::uint8_t* out,
                                           std::size_t n) {
  const __m256i needle = _mm256_set1_epi32(value);
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i packed32[4];
    for (int b = 0; b < 4; ++b) {
      const __m256i eq = _mm256_cmpeq_epi32(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(labels + i + 8 * b)), needle);
      packed32[b] = _mm256_and_si256(eq, one);
    }
    // packs operates within 128-bit halves; permute fixes the interleave.
    const __m256i lo = _mm256_packs_epi32(packed32[0], packed32[1]);
    const __m256i hi = _mm256_packs_epi32(packed32[2], packed32[3]);
    const __m256i bytes = _mm256_packus_epi16(lo, hi);
    const __m256i fixed =
        _mm256_permutevar8x32_epi32(bytes, _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), fixed);
  }
  for (; i < n; ++i) out[i] = labels[i] == value ? 1 : 0;
}
#endif

#if defined(SLJ_SIMD_NEON)
template <>
inline void store_equal01_i32<NeonBackend>(const int* labels, int value, std::uint8_t* out,
                                           std::size_t n) {
  const int32x4_t needle = vdupq_n_s32(value);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    uint16x4_t half[4];
    for (int b = 0; b < 4; ++b) {
      const uint32x4_t eq = vceqq_s32(vld1q_s32(labels + i + 4 * b), needle);
      half[b] = vmovn_u32(vshrq_n_u32(eq, 31));
    }
    const uint8x8_t lo = vmovn_u16(vcombine_u16(half[0], half[1]));
    const uint8x8_t hi = vmovn_u16(vcombine_u16(half[2], half[3]));
    vst1q_u8(out + i, vcombine_u8(lo, hi));
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

#if defined(SLJ_SIMD_AVX2)
template <>
inline void store_fill01_u8<Avx2Backend>(const std::uint8_t* src, const std::uint8_t* closed,
                                         std::uint8_t* out, std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi8(1);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i s = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i c = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(closed + i));
    const __m256i src_zero = _mm256_cmpeq_epi8(s, zero);
    const __m256i closed_zero = _mm256_cmpeq_epi8(c, zero);
    const __m256i keep =
        _mm256_or_si256(_mm256_andnot_si256(src_zero, _mm256_set1_epi8(-1)), closed_zero);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), _mm256_and_si256(keep, one));
  }
  for (; i < n; ++i) out[i] = (src[i] != 0 || closed[i] == 0) ? 1 : 0;
}
#endif

#if defined(SLJ_SIMD_NEON)
template <>
inline void store_fill01_u8<NeonBackend>(const std::uint8_t* src, const std::uint8_t* closed,
                                         std::uint8_t* out, std::size_t n) {
  const uint8x16_t zero = vdupq_n_u8(0);
  const uint8x16_t one = vdupq_n_u8(1);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t s = vld1q_u8(src + i);
    const uint8x16_t c = vld1q_u8(closed + i);
    const uint8x16_t fg = vmvnq_u8(vceqq_u8(s, zero));  // 0xFF where src != 0
    const uint8x16_t hole = vceqq_u8(c, zero);          // 0xFF where closed == 0
    vst1q_u8(out + i, vandq_u8(vorrq_u8(fg, hole), one));
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

#if defined(SLJ_SIMD_SSE2) || defined(SLJ_SIMD_AVX2)
namespace detail {
// One riffle of 48 bytes held as three vectors (per 128-bit lane): the
// first 24 bytes interleaved with the last 24. A riffle sends byte p to
// 2p mod 47 (byte 47 stays), so four send 3i + c to 16c + i: channel c of
// 16 pixels lands in vector c. SSE2 and AVX2 share it through their 128-bit
// lane-local unpacks.
template <class V, class UnpackLo8, class UnpackHi64>
inline void riffle48(V& v0, V& v1, V& v2, UnpackLo8 lo8, UnpackHi64 hi64) {
  const V n0 = lo8(v0, hi64(v1, v1));
  const V n1 = lo8(hi64(v0, v0), v2);
  const V n2 = lo8(v1, hi64(v2, v2));
  v0 = n0;
  v1 = n1;
  v2 = n2;
}
}  // namespace detail
#endif

#if defined(SLJ_SIMD_SSE2)
template <>
inline void deinterleave_rgb<Sse2Backend>(const std::uint8_t* rgb, std::uint8_t* r,
                                          std::uint8_t* g, std::uint8_t* b, std::size_t n) {
  const auto lo8 = [](__m128i x, __m128i y) { return _mm_unpacklo_epi8(x, y); };
  const auto hi64 = [](__m128i x, __m128i y) { return _mm_unpackhi_epi64(x, y); };
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const std::uint8_t* p = rgb + 3 * i;
    __m128i v0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    __m128i v1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
    __m128i v2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
    for (int k = 0; k < 4; ++k) detail::riffle48(v0, v1, v2, lo8, hi64);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(r + i), v0);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(g + i), v1);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(b + i), v2);
  }
  deinterleave_rgb<ScalarBackend>(rgb + 3 * i, r + i, g + i, b + i, n - i);
}
#endif

#if defined(SLJ_SIMD_AVX2)
template <>
inline void deinterleave_rgb<Avx2Backend>(const std::uint8_t* rgb, std::uint8_t* r,
                                          std::uint8_t* g, std::uint8_t* b, std::size_t n) {
  const auto lo8 = [](__m256i x, __m256i y) { return _mm256_unpacklo_epi8(x, y); };
  const auto hi64 = [](__m256i x, __m256i y) { return _mm256_unpackhi_epi64(x, y); };
  // Pixels [0, 16) ride the low 128-bit lanes and [16, 32) the high ones.
  const auto load2 = [](const std::uint8_t* lo, const std::uint8_t* hi) {
    const __m128i l = _mm_loadu_si128(reinterpret_cast<const __m128i*>(lo));
    const __m128i h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(hi));
    return _mm256_inserti128_si256(_mm256_castsi128_si256(l), h, 1);
  };
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const std::uint8_t* p = rgb + 3 * i;
    __m256i v0 = load2(p, p + 48);
    __m256i v1 = load2(p + 16, p + 64);
    __m256i v2 = load2(p + 32, p + 80);
    for (int k = 0; k < 4; ++k) detail::riffle48(v0, v1, v2, lo8, hi64);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(r + i), v0);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(g + i), v1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(b + i), v2);
  }
  deinterleave_rgb<ScalarBackend>(rgb + 3 * i, r + i, g + i, b + i, n - i);
}
#endif

#if defined(SLJ_SIMD_NEON)
template <>
inline void deinterleave_rgb<NeonBackend>(const std::uint8_t* rgb, std::uint8_t* r,
                                          std::uint8_t* g, std::uint8_t* b, std::size_t n) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16x3_t px = vld3q_u8(rgb + 3 * i);
    vst1q_u8(r + i, px.val[0]);
    vst1q_u8(g + i, px.val[1]);
    vst1q_u8(b + i, px.val[2]);
  }
  deinterleave_rgb<ScalarBackend>(rgb + 3 * i, r + i, g + i, b + i, n - i);
}
#endif

}  // namespace slj::simd
