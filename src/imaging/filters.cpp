#include "imaging/filters.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>

#include "core/simd.hpp"
#include "imaging/row_kernels.hpp"

namespace slj {

SLJ_HOT_PATH void median_filter_binary_into(const BinaryImage& img, int k,
                                            std::vector<std::uint16_t>& colsum, BinaryImage& out) {
  if (k < 1 || k > 127 || k % 2 == 0) {
    throw std::invalid_argument("binary median window must be odd and in [1, 127]");
  }
  // Separable integer box count: a sliding column-count row (colsum[x] =
  // ones in the clamped window column at x) updated by one add/sub per row,
  // and every output pixel a k-tap horizontal sum of those counts. All
  // values are exact small integers, so the result is bit-identical to the
  // summed-area-table median in tests/reference/ at any backend;
  // `2*count > area-1  ⇔  2*count >= area` keeps the upper-median tie rule.
  // The k <= 127 bound holds every 16-bit lane: counts <= k*k <= 16129,
  // doubled <= 32258 < 2^15, so the backends' signed compares agree with
  // unsigned.
  using VU = simd::VecU16<simd::Active>;
  const int w = img.width();
  const int h = img.height();
  const int half = k / 2;
  const std::uint8_t* src = img.data().data();
  out.resize_discard(w, h);
  std::uint8_t* dst = out.data().data();
  colsum.assign(static_cast<std::size_t>(w), 0);
  std::uint16_t* col = colsum.data();
  const auto row_ptr = [&](int y) {
    return src + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
  };
  // Seed the column counts for output row 0.
  int y0 = 0;
  int y1 = std::min(half, h - 1);
  for (int yy = y0; yy <= y1; ++yy) rowk::col_add_u8<simd::Active>(row_ptr(yy), col, w);
  for (int y = 0; y < h; ++y) {
    if (y > 0) {
      const int add_row = y + half;      // enters the window (if on the image)
      const int sub_row = y - half - 1;  // retires from it (if it ever was)
      if (add_row < h && sub_row >= 0) {
        rowk::col_slide_u8<simd::Active>(row_ptr(add_row), row_ptr(sub_row), col, w);
      } else if (add_row < h) {
        rowk::col_add_u8<simd::Active>(row_ptr(add_row), col, w);
      } else if (sub_row >= 0) {
        rowk::col_sub_u8<simd::Active>(row_ptr(sub_row), col, w);
      }
      y0 = std::max(y - half, 0);
      y1 = std::min(y + half, h - 1);
    }
    const int rows = y1 - y0 + 1;
    std::uint8_t* d = dst + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    // Clamped columns: the window narrows at the left/right edge and the
    // median is taken over the pixels actually present.
    const auto clamped_pixel = [&](int x) {
      const int x0 = std::max(x - half, 0);
      const int x1 = std::min(x + half, w - 1);
      int count = 0;
      for (int c = x0; c <= x1; ++c) count += col[c];
      const int area = (x1 - x0 + 1) * rows;
      d[x] = count * 2 >= area ? 1 : 0;
    };
    int x = 0;
    for (; x < half && x < w; ++x) clamped_pixel(x);
    const int x_end = w - half;
    const int interior_area = k * rows;
    const VU vthresh = VU::broadcast(static_cast<std::uint16_t>(interior_area - 1));
    for (; x + VU::kLanes <= x_end; x += VU::kLanes) {
      VU count = VU::load(col + (x - half));
      for (int t = 1; t < k; ++t) count = count + VU::load(col + (x - half) + t);
      VU::store_gt01(count + count, vthresh, d + x);
    }
    for (; x < x_end; ++x) {
      int count = 0;
      for (int t = 0; t < k; ++t) count += col[x - half + t];
      d[x] = count * 2 >= interior_area ? 1 : 0;
    }
    for (; x < w; ++x) clamped_pixel(x);
  }
}

}  // namespace slj
