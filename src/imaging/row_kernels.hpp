// Row-level SIMD primitives shared by the RGB summed-area-table build
// (frame_workspace.cpp), the binary median (filters.cpp) and the
// windowed-sum passes (object_extractor.cpp). Everything here is templated on a slj::simd
// backend tag and instantiated twice by the kernels: once with
// simd::Active, once with simd::ScalarBackend — the scalar twin the
// SIMD-vs-scalar property suites compare against.
//
// Bit-identity: SAT rows are staged as int32 prefix sums (exact — row sums
// of 8-bit pixels stay far below 2^31) and widened to double with an exact
// conversion, so `prev + double(stage)` performs the same single IEEE
// addition as the serial recurrence `tab(x+1,y+1) = tab(x+1,y) + row_sum`.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/simd.hpp"

namespace slj::rowk {

/// One SAT row: row[0] = 0, row[x+1] = prev[x+1] + double(stage[x]). For
/// the first image row `prev` is the table's all-zero row 0.
template <class B>
inline void sat_row(const std::int32_t* stage, const double* prev, double* row, int w) {
  using V = simd::VecF64<B>;
  row[0] = 0.0;
  int x = 0;
  for (; x + V::kLanes <= w; x += V::kLanes) {
    (V::load(prev + x + 1) + V::load_i32(stage + x)).store(row + x + 1);
  }
  for (; x < w; ++x) row[x + 1] = prev[x + 1] + static_cast<double>(stage[x]);
}

/// Window sums for kLanes consecutive pixels: the four clamp-free table
/// loads of interior_window_sum, in the same operation order
/// ((a − b) − c) + d, so every lane is bit-identical to the scalar sum.
/// `r0`/`r1` are table-row offsets (rows y−half and y+half+1 times the
/// stride); `c0`/`c1` are table columns x−half and x+half+1 of the first
/// lane.
template <class B>
inline simd::VecF64<B> window_sum_vec(const double* tab, std::size_t r0, std::size_t r1,
                                      std::size_t c0, std::size_t c1) {
  using V = simd::VecF64<B>;
  return V::load(tab + r1 + c1) - V::load(tab + r1 + c0) - V::load(tab + r0 + c1) +
         V::load(tab + r0 + c0);
}

/// col[x] += row[x] for a 0/1 byte row — seeds the sliding column counts of
/// the separable integer box filters.
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

/// col[x] += add[x] - sub[x]: one fused slide of the column counts when the
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

}  // namespace slj::rowk
