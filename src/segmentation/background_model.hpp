// Background model for the paper's object-extraction algorithm (Sec. 2,
// steps i–ii): the moving-window n×n per-channel average Bave of the
// empty-scene frame, with the paper's n = 3. Its means come from
// for_each_window_mean, the walk every frame shares with it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/simd.hpp"
#include "imaging/image.hpp"
#include "imaging/row_kernels.hpp"

namespace slj {

/// Per-channel moving-window mean of an RGB image; the paper's Aave / Bave.
struct RgbMeans {
  Image<double> r;
  Image<double> g;
  Image<double> b;
};

}  // namespace slj

namespace slj::seg {

class BackgroundModel {
 public:
  /// The paper's n: the side of the moving window.
  static constexpr int kWindow = 3;
  /// One quotient per n×n window sum of 8-bit pixels: 9·255 + 1.
  static constexpr std::size_t kMeanTableEntries = kWindow * kWindow * 255 + 1;

  /// The model is empty until a background is set.
  BackgroundModel();

  /// Installs the empty-scene frame.
  void set_background(const RgbImage& frame);

  void reset();

  bool has_background() const { return has_background_; }
  int width() const { return mean_.r.width(); }
  int height() const { return mean_.r.height(); }

  /// The paper's Bave: per-channel moving-window mean of the background.
  /// Built eagerly by set_background(), so concurrent const reads (parallel
  /// frame extraction against one installed background) are safe.
  const RgbMeans& averaged() const;

  /// The window-mean quotient table: entry k is k / (n·n) as a double, for
  /// every n×n window sum k of 8-bit pixels.
  const std::vector<double>& mean_table() const { return mean_table_; }

  /// Calls store(i, mean_r, mean_g, mean_b) for every pixel i of `img` in
  /// raster order. Each n×n RGB window sum is exact: sliding 16-bit column
  /// sums (`colsum`, at most 3·255 each) plus an n-tap row sum (`rowsum`),
  /// both scratch resized here. It becomes a mean by the seed's one IEEE
  /// division, q[sum] inside and sum / clamped area at the edges, so every
  /// mean keeps its bits.
  template <class Store>
  void for_each_window_mean(const RgbImage& img, std::vector<std::uint16_t>& colsum,
                            std::vector<std::uint16_t>& rowsum, Store&& store) const;

 private:
  bool has_background_ = false;
  std::vector<double> mean_table_;
  RgbMeans mean_;
};

template <class Store>
void BackgroundModel::for_each_window_mean(const RgbImage& img,
                                           std::vector<std::uint16_t>& colsum,
                                           std::vector<std::uint16_t>& rowsum,
                                           Store&& store) const {
  static_assert(sizeof(Rgb) == 3, "an RgbImage row is read as 3·width interleaved bytes");
  constexpr int half = kWindow / 2;
  const int w = img.width();
  const int h = img.height();

  // col[3x + c] is channel c summed over the window's (clamped) rows at
  // column x, slid down one row at a time like the binary median's counts.
  const int row_len = 3 * w;
  colsum.assign(static_cast<std::size_t>(row_len), 0);
  rowsum.resize(static_cast<std::size_t>(row_len));
  std::uint16_t* col = colsum.data();
  const auto* px = reinterpret_cast<const std::uint8_t*>(img.data().data());
  const auto row_ptr = [&](int y) {
    return px + static_cast<std::size_t>(y) * static_cast<std::size_t>(row_len);
  };
  for (int yy = 0; yy <= std::min(half, h - 1); ++yy) {
    rowk::col_add_u8<simd::Active>(row_ptr(yy), col, row_len);
  }
  for (int y = 0; y < h; ++y) {
    if (y > 0) {
      const int add_row = y + half;      // enters the window (if on the image)
      const int sub_row = y - half - 1;  // retires from it (if it ever was)
      if (add_row < h && sub_row >= 0) {
        rowk::col_slide_u8<simd::Active>(row_ptr(add_row), row_ptr(sub_row), col, row_len);
      } else if (add_row < h) {
        rowk::col_add_u8<simd::Active>(row_ptr(add_row), col, row_len);
      } else if (sub_row >= 0) {
        rowk::col_sub_u8<simd::Active>(row_ptr(sub_row), col, row_len);
      }
    }
    const int rows = std::min(y + half, h - 1) - std::max(y - half, 0) + 1;
    const std::size_t row = static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    const auto clamped_pixel = [&](int x) {
      const int x0 = std::max(x - half, 0);
      const int x1 = std::min(x + half, w - 1);
      std::int64_t sr = 0;
      std::int64_t sg = 0;
      std::int64_t sb = 0;
      for (int c = x0; c <= x1; ++c) {
        sr += col[3 * c];
        sg += col[3 * c + 1];
        sb += col[3 * c + 2];
      }
      const double area = static_cast<double>(x1 - x0 + 1) * static_cast<double>(rows);
      store(row + static_cast<std::size_t>(x), static_cast<double>(sr) / area,
            static_cast<double>(sg) / area, static_cast<double>(sb) / area);
    };
    const int x_end = w - half;  // interior columns: [half, x_end)
    int x = 0;
    if (rows == kWindow && half < x_end) {
      const double* q = mean_table_.data();
      for (; x < half; ++x) clamped_pixel(x);
      // Horizontal n-tap sums of the interleaved column sums: rowsum[3j + c]
      // is channel c's window sum for the pixel at x = half + j.
      rowk::tap_sum_u16<simd::Active>(col, 3, kWindow, rowsum.data(), 3 * (x_end - half));
      for (; x < x_end; ++x) {
        const std::uint16_t* s = rowsum.data() + 3 * (x - half);
        store(row + static_cast<std::size_t>(x), q[s[0]], q[s[1]], q[s[2]]);
      }
    }
    for (; x < w; ++x) clamped_pixel(x);
  }
}

}  // namespace slj::seg
