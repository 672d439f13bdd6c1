// Portable fixed-width SIMD abstraction for the per-frame vision kernels.
//
// Backends: SSE2 (2 f64 / 16 u8 lanes), AVX2 (4 f64 / 32 u8 lanes), NEON
// (2 f64 / 16 u8 lanes), and a scalar fallback (1 lane) that is always
// compiled. The active backend is chosen at configure time by the SLJ_SIMD
// CMake option:
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
// paths because every operation here is either integer arithmetic on exact
// small counts (VecU16: window sums of 8-bit pixels) or a lane-wise IEEE
// double +, -, *, /, min/max or |x| — each a single correctly-rounded
// operation, identical to its scalar counterpart. Nothing here may
// introduce FMA contraction or reassociation: each operation maps to one
// explicit non-fused instruction.
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

// ---- VecF64: a fixed-width vector of doubles -------------------------------

template <class Backend>
struct VecF64;

template <>
struct VecF64<ScalarBackend> {
  static constexpr int kLanes = 1;
  double v;

  static VecF64 load(const double* p) { return {*p}; }
  static VecF64 broadcast(double x) { return {x}; }
  void store(double* p) const { *p = v; }

  friend VecF64 operator+(VecF64 a, VecF64 b) { return {a.v + b.v}; }
  friend VecF64 operator-(VecF64 a, VecF64 b) { return {a.v - b.v}; }
  friend VecF64 operator*(VecF64 a, VecF64 b) { return {a.v * b.v}; }
  friend VecF64 operator/(VecF64 a, VecF64 b) { return {a.v / b.v}; }

  VecF64 abs() const { return {std::fabs(v)}; }
  static VecF64 max(VecF64 a, VecF64 b) { return {a.v > b.v ? a.v : b.v}; }
  static VecF64 min(VecF64 a, VecF64 b) { return {a.v < b.v ? a.v : b.v}; }

  /// Writes kLanes bytes: out[i] = (a[i] >= b[i]) ? 1 : 0.
  static void store_ge01(VecF64 a, VecF64 b, std::uint8_t* out) {
    out[0] = a.v >= b.v ? 1 : 0;
  }
};

#if defined(SLJ_SIMD_SSE2)
template <>
struct VecF64<Sse2Backend> {
  static constexpr int kLanes = 2;
  __m128d v;

  static VecF64 load(const double* p) { return {_mm_loadu_pd(p)}; }
  static VecF64 broadcast(double x) { return {_mm_set1_pd(x)}; }
  void store(double* p) const { _mm_storeu_pd(p, v); }

  friend VecF64 operator+(VecF64 a, VecF64 b) { return {_mm_add_pd(a.v, b.v)}; }
  friend VecF64 operator-(VecF64 a, VecF64 b) { return {_mm_sub_pd(a.v, b.v)}; }
  friend VecF64 operator*(VecF64 a, VecF64 b) { return {_mm_mul_pd(a.v, b.v)}; }
  friend VecF64 operator/(VecF64 a, VecF64 b) { return {_mm_div_pd(a.v, b.v)}; }

  VecF64 abs() const {
    // Clear the sign bit; |x| is exact, same as std::fabs lane-wise.
    const __m128d mask = _mm_castsi128_pd(_mm_set1_epi64x(0x7fffffffffffffffLL));
    return {_mm_and_pd(v, mask)};
  }
  static VecF64 max(VecF64 a, VecF64 b) { return {_mm_max_pd(b.v, a.v)}; }
  static VecF64 min(VecF64 a, VecF64 b) { return {_mm_min_pd(b.v, a.v)}; }

  static void store_ge01(VecF64 a, VecF64 b, std::uint8_t* out) {
    const int bits = _mm_movemask_pd(_mm_cmpge_pd(a.v, b.v));
    out[0] = static_cast<std::uint8_t>(bits & 1);
    out[1] = static_cast<std::uint8_t>((bits >> 1) & 1);
  }
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

  friend VecF64 operator+(VecF64 a, VecF64 b) { return {_mm256_add_pd(a.v, b.v)}; }
  friend VecF64 operator-(VecF64 a, VecF64 b) { return {_mm256_sub_pd(a.v, b.v)}; }
  friend VecF64 operator*(VecF64 a, VecF64 b) { return {_mm256_mul_pd(a.v, b.v)}; }
  friend VecF64 operator/(VecF64 a, VecF64 b) { return {_mm256_div_pd(a.v, b.v)}; }

  VecF64 abs() const {
    const __m256d mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    return {_mm256_and_pd(v, mask)};
  }
  static VecF64 max(VecF64 a, VecF64 b) { return {_mm256_max_pd(b.v, a.v)}; }
  static VecF64 min(VecF64 a, VecF64 b) { return {_mm256_min_pd(b.v, a.v)}; }

  static void store_ge01(VecF64 a, VecF64 b, std::uint8_t* out) {
    const int bits = _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ));
    out[0] = static_cast<std::uint8_t>(bits & 1);
    out[1] = static_cast<std::uint8_t>((bits >> 1) & 1);
    out[2] = static_cast<std::uint8_t>((bits >> 2) & 1);
    out[3] = static_cast<std::uint8_t>((bits >> 3) & 1);
  }
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

  friend VecF64 operator+(VecF64 a, VecF64 b) { return {vaddq_f64(a.v, b.v)}; }
  friend VecF64 operator-(VecF64 a, VecF64 b) { return {vsubq_f64(a.v, b.v)}; }
  friend VecF64 operator*(VecF64 a, VecF64 b) { return {vmulq_f64(a.v, b.v)}; }
  friend VecF64 operator/(VecF64 a, VecF64 b) { return {vdivq_f64(a.v, b.v)}; }

  VecF64 abs() const { return {vabsq_f64(v)}; }
  static VecF64 max(VecF64 a, VecF64 b) { return {vmaxq_f64(a.v, b.v)}; }
  static VecF64 min(VecF64 a, VecF64 b) { return {vminq_f64(a.v, b.v)}; }

  static void store_ge01(VecF64 a, VecF64 b, std::uint8_t* out) {
    const uint64x2_t ge = vcgeq_f64(a.v, b.v);
    out[0] = static_cast<std::uint8_t>(vgetq_lane_u64(ge, 0) & 1u);
    out[1] = static_cast<std::uint8_t>(vgetq_lane_u64(ge, 1) & 1u);
  }
};
#endif  // SLJ_SIMD_NEON

/// f64 lane width of the configured backend (telemetry / bench JSON).
inline int f64_lanes() { return VecF64<Active>::kLanes; }

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
// the binary median's counts). Lanes wrap at 2^16, so callers bound their
// sums below that; store_gt01 compares signed on x86, so its inputs must
// stay at or below 32767 (the median guards its window size for this).

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

  static void store_gt01(VecU16 a, VecU16 b, std::uint8_t* out) {
    const uint16x8_t gt = vcgtq_u16(a.v, b.v);
    vst1_u8(out, vmovn_u16(vandq_u16(gt, vdupq_n_u16(1))));
  }
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

}  // namespace slj::simd
