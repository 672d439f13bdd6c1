// Background model for the paper's object-extraction algorithm (Sec. 2,
// steps i–ii): the moving-window n×n per-channel average of the background
// frame, optionally accumulated over several empty frames for stability
// ("the light sources can be controlled and are more stable"). The plate
// stays integer (exact per-pixel sums from the second frame on), and its
// means come from for_each_window_mean, the walk every frame shares with it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/simd.hpp"
#include "imaging/image.hpp"
#include "imaging/integral.hpp"
#include "imaging/row_kernels.hpp"

namespace slj::seg {

class BackgroundModel {
 public:
  /// `window` is the paper's n (odd). The model is empty until a frame is
  /// accumulated.
  explicit BackgroundModel(int window = 3);

  /// Adds one empty-scene frame; the stored background is the running mean.
  void accumulate(const RgbImage& frame);

  /// Convenience: reset and accumulate exactly one frame.
  void set_background(const RgbImage& frame);

  void reset();

  bool has_background() const { return frame_count_ > 0; }
  int window() const { return window_; }
  int width() const { return plate_.width(); }
  int height() const { return plate_.height(); }

  /// The paper's Bave: per-channel moving-window mean of the background.
  /// Rebuilt eagerly by accumulate(), so concurrent const reads (parallel
  /// frame extraction against one installed background) are safe.
  const RgbMeans& averaged() const;

  /// Cap on the quotient table's size: n·n·255 + 1 entries, so windows
  /// 1, 3 and 5 are tabled (2 296 doubles, ≈18 KB, at n = 3) and larger
  /// windows divide per pixel instead.
  static constexpr std::size_t kMaxMeanTableEntries = 8192;

  /// The window-mean quotient table: entry k is k / (n·n) as a double, for
  /// every n×n window sum k of 8-bit pixels; empty when the window is too
  /// large to table.
  const std::vector<double>& mean_table() const { return mean_table_; }

  /// Calls store(i, mean_r, mean_g, mean_b) for every pixel i of `img` in
  /// raster order. Each n×n RGB window sum is exact: sliding 16-bit column
  /// sums (`colsum`) plus an n-tap row sum (`rowsum`), both scratch resized
  /// here. It becomes a mean by the seed's one IEEE division, q[sum] inside
  /// and sum / clamped area at the edges, so every mean keeps its bits. A
  /// window and image both taller than 257 rows, where a column sum could
  /// wrap, take window_mean_rgb's means instead (allocating).
  template <class Store>
  void for_each_window_mean(const RgbImage& img, std::vector<std::uint16_t>& colsum,
                            std::vector<std::uint16_t>& rowsum, Store&& store) const;

 private:
  int window_;
  int frame_count_ = 0;
  RgbImage plate_;                   ///< the frames' per-pixel average, rounded
  std::vector<std::uint32_t> sums_;  ///< interleaved RGB frame sums, from frame 2 on
  std::vector<double> mean_table_;
  RgbMeans mean_;
};

template <class Store>
void BackgroundModel::for_each_window_mean(const RgbImage& img,
                                           std::vector<std::uint16_t>& colsum,
                                           std::vector<std::uint16_t>& rowsum,
                                           Store&& store) const {
  static_assert(sizeof(Rgb) == 3, "an RgbImage row is read as 3·width interleaved bytes");
  // A 16-bit column sum of this many 8-bit rows cannot wrap (257 · 255 = 65535).
  constexpr int kMaxColumnRows = 65535 / 255;
  const int w = img.width();
  const int h = img.height();
  const int n = window_;
  const int half = n / 2;
  if (std::min(n, h) > kMaxColumnRows) {
    const RgbMeans m = window_mean_rgb(img, n);
    for (std::size_t i = 0; i < img.size(); ++i) {
      store(i, m.r.data()[i], m.g.data()[i], m.b.data()[i]);
    }
    return;
  }

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
    if (!mean_table_.empty() && rows == n && half < x_end) {
      const double* q = mean_table_.data();
      for (; x < half; ++x) clamped_pixel(x);
      // Horizontal n-tap sums of the interleaved column sums: rowsum[3j + c]
      // is channel c's window sum for the pixel at x = half + j.
      rowk::tap_sum_u16<simd::Active>(col, 3, n, rowsum.data(), 3 * (x_end - half));
      for (; x < x_end; ++x) {
        const std::uint16_t* s = rowsum.data() + 3 * (x - half);
        store(row + static_cast<std::size_t>(x), q[s[0]], q[s[1]], q[s[2]]);
      }
    }
    for (; x < w; ++x) clamped_pixel(x);
  }
}

}  // namespace slj::seg
