// The foreground's bounding box, which bounds the work of every stage after
// the mask: the jumper covers about a tenth of the frame, and a stage whose
// output can only be nonzero near its input's foreground need not touch the
// rest. Each stage finds the box of its own input; none trusts a box left
// behind by an earlier stage.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "core/simd.hpp"
#include "imaging/image.hpp"

namespace slj {

/// Half-open pixel rectangle [x0, x1) × [y0, y1).
struct PixelBox {
  int x0 = 0;
  int y0 = 0;
  int x1 = 0;
  int y1 = 0;

  bool empty() const { return x0 >= x1 || y0 >= y1; }
  int width() const { return x1 - x0; }
  int height() const { return y1 - y0; }
  bool contains(int x, int y) const { return x >= x0 && x < x1 && y >= y0 && y < y1; }

  /// The box grown by `margin` on every side, clamped to a w×h frame.
  PixelBox grown(int margin, int w, int h) const {
    return {std::max(x0 - margin, 0), std::max(y0 - margin, 0), std::min(x1 + margin, w),
            std::min(y1 + margin, h)};
  }
};

/// Whether any of the n bytes at p is nonzero: a word-wide OR that the
/// compiler vectorises, with no branch per block.
inline bool any_nonzero(const std::uint8_t* p, std::size_t n) {
  std::uint64_t acc = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t v;
    std::memcpy(&v, p + i, sizeof v);
    acc |= v;
  }
  for (; i < n; ++i) acc |= p[i];
  return acc != 0;
}

/// Bounding box of the nonzero pixels (empty when there are none). The
/// first and last rows with foreground bound it vertically; between them,
/// a row is searched only where it could widen the box found so far, left
/// of it and right of it, so the whole frame costs about one OR pass.
inline PixelBox foreground_box(const BinaryImage& img) {
  const std::size_t wn = static_cast<std::size_t>(img.width());
  const std::uint8_t* src = img.data().data();
  const auto row = [&](int y) { return src + static_cast<std::size_t>(y) * wn; };
  int y0 = 0;
  int y1 = img.height();
  while (y0 < y1 && !any_nonzero(row(y0), wn)) ++y0;
  if (y0 == y1) return {};
  while (!any_nonzero(row(y1 - 1), wn)) --y1;  // stops at y0 at the latest
  std::size_t x0 = wn;
  std::size_t x1 = 0;
  for (int y = y0; y < y1; ++y) {
    const std::uint8_t* r = row(y);
    if (x0 > 0 && any_nonzero(r, x0)) x0 = simd::find_nonzero<simd::Active>(r, x0);
    if (x1 < wn && any_nonzero(r + x1, wn - x1)) {
      x1 = wn;
      while (r[x1 - 1] == 0) --x1;
    }
  }
  return {static_cast<int>(x0), y0, static_cast<int>(x1), y1};
}

/// Sets every pixel of `img` inside `box` to `value`.
template <typename T>
void fill_box(Image<T>& img, const PixelBox& box, T value) {
  T* data = img.data().data();
  const std::size_t w = static_cast<std::size_t>(img.width());
  for (int y = box.y0; y < box.y1; ++y) {
    T* row = data + static_cast<std::size_t>(y) * w;
    std::fill(row + box.x0, row + box.x1, value);
  }
}

}  // namespace slj
