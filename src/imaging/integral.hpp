// Integral images (summed-area tables) and the moving-window box mean the
// paper's object-extraction step is built on (Sec. 2: "average background
// matrix Bave over a moving window of n×n").
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "imaging/image.hpp"

namespace slj {

/// Summed-area table over a single channel. sum(x0,y0,x1,y1) is O(1).
class IntegralImage {
 public:
  IntegralImage() = default;

  /// Builds the table from an extractor functor mapping (x, y) → double.
  template <typename Fn>
  IntegralImage(int width, int height, Fn&& value_at) {
    assign(width, height, std::forward<Fn>(value_at));
  }

  /// Rebuilds the table in place, reusing the existing storage when capacity
  /// allows. Same recurrence as the constructor, so the resulting sums are
  /// bit-identical to a freshly built table.
  template <typename Fn>
  void assign(int width, int height, Fn&& value_at) {
    table_.assign(checked_table_size(width, height), 0.0);
    width_ = width;
    height_ = height;
    for (int y = 0; y < height; ++y) {
      double row_sum = 0.0;
      for (int x = 0; x < width; ++x) {
        row_sum += value_at(x, y);
        tab(x + 1, y + 1) = tab(x + 1, y) + row_sum;
      }
    }
  }

  int width() const { return width_; }
  int height() const { return height_; }

  /// Inclusive-rectangle sum over [x0, x1] × [y0, y1]; clamps to the image.
  double sum(int x0, int y0, int x1, int y1) const;

  /// Resizes to a zeroed (width+1) × (height+1) table and returns its raw
  /// storage, for external row-major filling with the same recurrence as
  /// assign() (the binary median's table). Row y of the source lands at
  /// entry (y+1) * (width+1) + x + 1.
  double* raw_prepare(int width, int height) {
    table_.assign(checked_table_size(width, height), 0.0);
    width_ = width;
    height_ = height;
    return table_.data();
  }

  /// Mean of the window centred at (x, y) with side `n` (odd), clamped at
  /// image borders (the divisor is the clamped area, so border means stay
  /// unbiased).
  double window_mean(int x, int y, int n) const;

 private:
  /// Size of the (width+1) × (height+1) table, computed in size_t with the
  /// dimensions validated and the product overflow-guarded. Callers can hand
  /// this class any decoded dimensions; it defends itself.
  static std::size_t checked_table_size(int width, int height) {
    if (width < 0 || height < 0) {
      throw std::invalid_argument("IntegralImage dimensions must be non-negative");
    }
    const std::size_t tw = static_cast<std::size_t>(width) + 1;
    const std::size_t th = static_cast<std::size_t>(height) + 1;
    if (tw > std::numeric_limits<std::size_t>::max() / th) {
      throw std::length_error("IntegralImage dimensions overflow size_t");
    }
    return tw * th;
  }

  double& tab(int x, int y) {
    return table_[static_cast<std::size_t>(y) * (static_cast<std::size_t>(width_) + 1) +
                  static_cast<std::size_t>(x)];
  }
  const double& tab(int x, int y) const {
    return table_[static_cast<std::size_t>(y) * (static_cast<std::size_t>(width_) + 1) +
                  static_cast<std::size_t>(x)];
  }

  int width_ = 0;
  int height_ = 0;
  std::vector<double> table_;
};

/// Per-channel moving-window mean of an RGB image; the paper's Aave / Bave.
/// `n` must be odd and >= 1.
struct RgbMeans {
  Image<double> r;
  Image<double> g;
  Image<double> b;
};

RgbMeans window_mean_rgb(const RgbImage& img, int n);

}  // namespace slj
