// Background model for the paper's object-extraction algorithm (Sec. 2,
// steps i–ii): the empty-scene frame's moving-window n×n per-channel sums,
// with the paper's n = 3. The paper's Bave is sum / area, area being the
// window clamped to the frame; the model keeps the exact 16-bit sums and
// never forms the quotient, so the extractor can compare them with a
// frame's own sums in integers. Both come from for_each_window_sum_row, the
// one walk every frame shares with the plate.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/simd.hpp"
#include "imaging/image.hpp"
#include "imaging/row_kernels.hpp"

namespace slj::seg {

class BackgroundModel {
 public:
  /// The paper's n: the side of the moving window.
  static constexpr int kWindow = 3;

  /// Installs the empty-scene frame: stores its window sums.
  void set_background(const RgbImage& frame);

  void reset() { has_background_ = false; }

  bool has_background() const { return has_background_; }
  int width() const { return width_; }
  int height() const { return height_; }

  /// Row y of the plate's window sums, 3·width() values in planar order:
  /// channel c's sum at column x is at [c·width() + x]. Filled eagerly by
  /// set_background(), so concurrent const reads (parallel frame extraction
  /// against one installed background) are safe.
  const std::uint16_t* window_sums_row(int y) const {
    return sums_.data() + static_cast<std::size_t>(y) * 3 * static_cast<std::size_t>(width_);
  }

  /// How many window lines cover index i on an axis of `len` pixels: n in
  /// the interior, fewer where the window is clamped at the edge. A pixel's
  /// window area is window_span(x, w) · window_span(y, h).
  static int window_span(int i, int len) {
    constexpr int half = kWindow / 2;
    return std::min(i + half, len - 1) - std::max(i - half, 0) + 1;
  }

  /// Calls row_fn(y, sums) for every row y of `img` in order, where `sums`
  /// holds row y's n×n window sums in window_sums_row's planar layout, each
  /// over the window clamped to the image. Each RGB row is deinterleaved
  /// once into a (n + 1)-row ring of planar bytes (`ring`); sliding 16-bit
  /// column sums (`colsum`, at most n·255 each) take it one row at a time
  /// and an n-tap horizontal sum (`rowsum`) finishes the window. All three
  /// are scratch, resized here; the sums are exact, at most n·n·255.
  template <class RowFn>
  static void for_each_window_sum_row(const RgbImage& img, std::vector<std::uint8_t>& ring,
                                      std::vector<std::uint16_t>& colsum,
                                      std::vector<std::uint16_t>& rowsum, RowFn&& row_fn);

 private:
  bool has_background_ = false;
  int width_ = 0;
  int height_ = 0;
  std::vector<std::uint16_t> sums_;  ///< height_ rows of window_sums_row's layout
};

template <class RowFn>
void BackgroundModel::for_each_window_sum_row(const RgbImage& img,
                                              std::vector<std::uint8_t>& ring,
                                              std::vector<std::uint16_t>& colsum,
                                              std::vector<std::uint16_t>& rowsum,
                                              RowFn&& row_fn) {
  static_assert(sizeof(Rgb) == 3, "an RgbImage row is read as 3·width interleaved bytes");
  constexpr int half = kWindow / 2;
  constexpr int ring_rows = kWindow + 1;  // the window's rows plus the one entering
  const int w = img.width();
  const int h = img.height();
  const int row_len = 3 * w;
  const std::size_t row_bytes = static_cast<std::size_t>(row_len);
  ring.resize(static_cast<std::size_t>(ring_rows) * row_bytes);
  colsum.assign(row_bytes, 0);
  rowsum.resize(row_bytes);
  std::uint16_t* col = colsum.data();
  std::uint16_t* sums = rowsum.data();
  const auto* px = reinterpret_cast<const std::uint8_t*>(img.data().data());
  // Image row r's planar copy; row r + ring_rows reuses its slot only once
  // the window has retired r.
  const auto planar = [&](int r) {
    return ring.data() + static_cast<std::size_t>(r % ring_rows) * row_bytes;
  };
  const auto enter = [&](int r) {
    std::uint8_t* dst = planar(r);
    simd::deinterleave_rgb<simd::Active>(px + static_cast<std::size_t>(r) * row_bytes, dst,
                                         dst + w, dst + 2 * w, static_cast<std::size_t>(w));
    return dst;
  };
  for (int r = 0; r <= std::min(half, h - 1); ++r) {
    rowk::col_add_u8<simd::Active>(enter(r), col, row_len);
  }
  for (int y = 0; y < h; ++y) {
    if (y > 0) {
      const int add_row = y + half;      // enters the window (if on the image)
      const int sub_row = y - half - 1;  // retires from it (if it ever was)
      if (add_row < h && sub_row >= 0) {
        rowk::col_slide_u8<simd::Active>(enter(add_row), planar(sub_row), col, row_len);
      } else if (add_row < h) {
        rowk::col_add_u8<simd::Active>(enter(add_row), col, row_len);
      } else if (sub_row >= 0) {
        rowk::col_sub_u8<simd::Active>(planar(sub_row), col, row_len);
      }
    }
    // Horizontal n-tap sums over all three planes at once: sums[c·w + x] is
    // right for the interior columns; the taps that straddle two planes land
    // on the edge columns, which are summed over their clamped windows.
    if (row_len > 2 * half) {
      rowk::tap_sum_u16<simd::Active>(col, 1, kWindow, sums + half, row_len - 2 * half);
    }
    const auto clamped = [&](int x) {
      for (int c = 0; c < 3; ++c) {
        const std::uint16_t* plane = col + c * w;
        int sum = 0;
        for (int xx = std::max(x - half, 0); xx <= std::min(x + half, w - 1); ++xx) {
          sum += plane[xx];
        }
        sums[c * w + x] = static_cast<std::uint16_t>(sum);
      }
    };
    for (int x = 0; x < std::min(half, w); ++x) clamped(x);
    for (int x = std::max(w - half, half); x < w; ++x) clamped(x);
    row_fn(y, static_cast<const std::uint16_t*>(sums));
  }
}

}  // namespace slj::seg
