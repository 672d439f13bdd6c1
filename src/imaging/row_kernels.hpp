// Row-level SIMD primitives for the separable integer box sums: the
// extractor's n×n RGB window sums (object_extractor.cpp) and the binary
// median's window counts (filters.cpp). Both keep a row of sliding 16-bit
// column sums, updated by one add/sub per image row, and take horizontal
// sums of it. Everything here is templated on a slj::simd backend tag;
// every value is an exact small integer, so each backend produces the same
// bits as simd::ScalarBackend.
#pragma once

#include <cstdint>

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

}  // namespace slj::rowk
