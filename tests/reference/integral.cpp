#include <algorithm>
#include <stdexcept>

#include "reference.hpp"

namespace slj::reference {

double IntegralImage::sum(int x0, int y0, int x1, int y1) const {
  x0 = std::max(x0, 0);
  y0 = std::max(y0, 0);
  x1 = std::min(x1, width_ - 1);
  y1 = std::min(y1, height_ - 1);
  if (x0 > x1 || y0 > y1) return 0.0;
  return tab(x1 + 1, y1 + 1) - tab(x0, y1 + 1) - tab(x1 + 1, y0) + tab(x0, y0);
}

double IntegralImage::window_mean(int x, int y, int n) const {
  const int half = n / 2;
  const int x0 = std::max(x - half, 0);
  const int y0 = std::max(y - half, 0);
  const int x1 = std::min(x + half, width_ - 1);
  const int y1 = std::min(y + half, height_ - 1);
  const double area = static_cast<double>(x1 - x0 + 1) * static_cast<double>(y1 - y0 + 1);
  return sum(x0, y0, x1, y1) / area;
}

namespace {

void require_odd_window(int n) {
  if (n < 1 || n % 2 == 0) throw std::invalid_argument("window size must be odd and >= 1");
}

}  // namespace

RgbMeans window_mean_rgb(const RgbImage& img, int n) {
  require_odd_window(n);
  const int w = img.width();
  const int h = img.height();
  const IntegralImage ir(w, h, [&](int x, int y) { return static_cast<double>(img.at(x, y).r); });
  const IntegralImage ig(w, h, [&](int x, int y) { return static_cast<double>(img.at(x, y).g); });
  const IntegralImage ib(w, h, [&](int x, int y) { return static_cast<double>(img.at(x, y).b); });
  RgbMeans out{Image<double>(w, h), Image<double>(w, h), Image<double>(w, h)};
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      out.r.at(x, y) = ir.window_mean(x, y, n);
      out.g.at(x, y) = ig.window_mean(x, y, n);
      out.b.at(x, y) = ib.window_mean(x, y, n);
    }
  }
  return out;
}

BinaryImage median_filter_binary(const BinaryImage& img, int k) {
  require_odd_window(k);
  const int w = img.width();
  const int h = img.height();
  const IntegralImage sat(w, h, [&](int x, int y) { return img.at(x, y) ? 1.0 : 0.0; });
  const int half = k / 2;
  BinaryImage out(w, h);
  // Upper median of a 0/1 population (ties resolve to 1, matching the
  // grayscale median's index-count/2 element).
  for (int y = 0; y < h; ++y) {
    const int y0 = std::max(y - half, 0);
    const int y1 = std::min(y + half, h - 1);
    for (int x = 0; x < w; ++x) {
      const int x0 = std::max(x - half, 0);
      const int x1 = std::min(x + half, w - 1);
      const double area = static_cast<double>(x1 - x0 + 1) * (y1 - y0 + 1);
      out.at(x, y) = sat.sum(x0, y0, x1, y1) * 2.0 >= area ? 1 : 0;
    }
  }
  return out;
}

}  // namespace slj::reference
