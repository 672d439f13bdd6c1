// Row-level SIMD primitives for the separable integer box sums: the
// background model's n×n RGB window sums (background_model.hpp) and the
// binary median's window counts (filters.cpp). Both keep a row of sliding
// 16-bit column sums, updated by one add/sub per image row, and take
// horizontal sums of it. The extractor's scaled difference and its
// threshold (object_extractor.cpp) work on those window sums. Everything
// here is templated on a slj::simd backend tag; every value is an exact
// small integer, so each backend produces the same bits as
// simd::ScalarBackend.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>

#include "core/simd.hpp"

namespace slj::rowk {

/// col[x] += row[x] for a byte row — seeds the sliding column sums.
template <class B>
inline void col_add_u8(const std::uint8_t* row, std::uint16_t* col, int w) {
  using V = simd::VecU16<B>;
  int x = 0;
  for (; x + V::kLanes <= w; x += V::kLanes) {
    (V::load(col + x) + V::load_u8(row + x)).store(col + x);
  }
  for (; x < w; ++x) col[x] = static_cast<std::uint16_t>(col[x] + row[x]);
}

/// col[x] -= row[x]; the retiring row when the window slides past the bottom
/// edge (no row enters).
template <class B>
inline void col_sub_u8(const std::uint8_t* row, std::uint16_t* col, int w) {
  using V = simd::VecU16<B>;
  int x = 0;
  for (; x + V::kLanes <= w; x += V::kLanes) {
    (V::load(col + x) - V::load_u8(row + x)).store(col + x);
  }
  for (; x < w; ++x) col[x] = static_cast<std::uint16_t>(col[x] - row[x]);
}

/// col[x] += add[x] - sub[x]: one fused slide of the column sums when the
/// window both gains its new bottom row and retires its old top row.
template <class B>
inline void col_slide_u8(const std::uint8_t* add, const std::uint8_t* sub, std::uint16_t* col,
                         int w) {
  using V = simd::VecU16<B>;
  int x = 0;
  for (; x + V::kLanes <= w; x += V::kLanes) {
    (V::load(col + x) + V::load_u8(add + x) - V::load_u8(sub + x)).store(col + x);
  }
  for (; x < w; ++x) col[x] = static_cast<std::uint16_t>(col[x] + add[x] - sub[x]);
}

/// out[j] = col[j] + col[j + stride] + ... (`taps` terms) for j in [0, n):
/// horizontal window sums of column sums, `stride` apart for interleaved
/// channels. Reads col[0, n + (taps - 1)·stride); the caller keeps every
/// sum below 2^16.
template <class B>
inline void tap_sum_u16(const std::uint16_t* col, int stride, int taps, std::uint16_t* out,
                        int n) {
  using V = simd::VecU16<B>;
  int j = 0;
  for (; j + V::kLanes <= n; j += V::kLanes) {
    V sum = V::load(col + j);
    for (int t = 1; t < taps; ++t) sum = sum + V::load(col + j + t * stride);
    sum.store(out + j);
  }
  for (; j < n; ++j) {
    int sum = 0;
    for (int t = 0; t < taps; ++t) sum += col[j + t * stride];
    out[j] = static_cast<std::uint16_t>(sum);
  }
}

/// t[x] = k · (|s[x] − b[x]| + |s[x + stride] − b[x + stride]| +
/// |s[x + 2·stride] − b[x + 2·stride]|) for x in [0, n): the scaled sum of
/// absolute differences over three channel planes `stride` apart. Returns
/// max(t), 0 when n is 0. The caller keeps every t at or below 32767.
template <class B>
inline std::uint16_t scaled_sad3_u16(const std::uint16_t* s, const std::uint16_t* b, int stride,
                                     std::uint16_t k, std::uint16_t* t, int n) {
  using V = simd::VecU16<B>;
  const V vk = V::broadcast(k);
  V vmax = V::broadcast(0);
  int x = 0;
  for (; x + V::kLanes <= n; x += V::kLanes) {
    const V sad = V::absdiff(V::load(s + x), V::load(b + x)) +
                  V::absdiff(V::load(s + stride + x), V::load(b + stride + x)) +
                  V::absdiff(V::load(s + 2 * stride + x), V::load(b + 2 * stride + x));
    const V scaled = sad * vk;
    scaled.store(t + x);
    vmax = V::max(vmax, scaled);
  }
  std::uint16_t m = vmax.reduce_max();
  for (; x < n; ++x) {
    int sad = 0;
    for (int c = 0; c < 3; ++c) sad += std::abs(s[c * stride + x] - b[c * stride + x]);
    t[x] = static_cast<std::uint16_t>(k * sad);
    m = std::max(m, t[x]);
  }
  return m;
}

/// out[i] = t[i] >= thr ? 1 : 0 for i in [0, n), thr in [1, 32767] (x86
/// compares signed). Returns whether some t[i] == thr.
template <class B>
inline bool threshold_u16(const std::uint16_t* t, std::uint16_t thr, std::uint8_t* out,
                          std::size_t n) {
  using V = simd::VecU16<B>;
  const V below = V::broadcast(static_cast<std::uint16_t>(thr - 1));
  const V vthr = V::broadcast(thr);
  V hit = V::broadcast(0);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    const V v = V::load(t + i);
    V::store_gt01(v, below, out + i);
    hit = hit | V::eq(v, vthr);
  }
  bool tie = hit.any();
  for (; i < n; ++i) {
    out[i] = t[i] >= thr ? 1 : 0;
    tie = tie || t[i] == thr;
  }
  return tie;
}

}  // namespace slj::rowk
