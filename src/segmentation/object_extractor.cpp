#include "segmentation/object_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "core/simd.hpp"
#include "imaging/connected.hpp"
#include "imaging/filters.hpp"
#include "imaging/morphology.hpp"
#include "imaging/row_kernels.hpp"

namespace slj::seg {
namespace {

// A 16-bit column sum of this many 8-bit rows cannot wrap (257 · 255 = 65535).
constexpr int kMaxColumnRows = 65535 / 255;

static_assert(sizeof(Rgb) == 3, "an RgbImage row is read as 3·width interleaved bytes");

void validate(const ExtractorParams& params) {
  if (params.window < 1 || params.window % 2 == 0) {
    throw std::invalid_argument("ExtractorParams.window (the paper's n) must be odd and >= 1; got " +
                                std::to_string(params.window));
  }
  if (params.median_window < 1 || params.median_window % 2 == 0) {
    throw std::invalid_argument("ExtractorParams.median_window must be odd and >= 1; got " +
                                std::to_string(params.median_window));
  }
  if (params.th_object < 0 || params.th_object > 255) {
    throw std::invalid_argument(
        "ExtractorParams.th_object must be in [0, 255] (it thresholds the normalized "
        "8-bit difference); got " +
        std::to_string(params.th_object));
  }
  if (!(params.min_max_difference >= 0.0)) {  // also rejects NaN
    throw std::invalid_argument("ExtractorParams.min_max_difference must be >= 0; got " +
                                std::to_string(params.min_max_difference));
  }
}

}  // namespace

// validate() runs inside the first initializer so an invalid window is
// reported with the ExtractorParams message, not BackgroundModel's.
ObjectExtractor::ObjectExtractor(ExtractorParams params)
    : params_((validate(params), params)), background_(params.window) {
  // One entry per window sum 0..n·n·255; the n > 255 test keeps the
  // product far from overflow.
  const std::size_t n = static_cast<std::size_t>(params_.window);
  if (n > 255 || n * n * 255 + 1 > kMaxMeanTableEntries) return;
  const double area = static_cast<double>(params_.window) * static_cast<double>(params_.window);
  mean_table_.resize(n * n * 255 + 1);
  for (std::size_t k = 0; k < mean_table_.size(); ++k) {
    mean_table_[k] = static_cast<double>(k) / area;
  }
}

void ObjectExtractor::set_background(const RgbImage& background) {
  background_.set_background(background);
}

void ObjectExtractor::accumulate_background(const RgbImage& background) {
  background_.accumulate(background);
}

SLJ_HOT_PATH double ObjectExtractor::difference_into(const RgbImage& frame,
                                                     FrameWorkspace& ws) const {
  if (!background_.has_background()) {
    throw std::logic_error("ObjectExtractor: background not set");
  }
  if (frame.width() != background_.width() || frame.height() != background_.height()) {
    throw std::invalid_argument("frame size differs from background");
  }
  const RgbMeans& bave = background_.averaged();
  const int w = frame.width();
  const int h = frame.height();
  const int n = params_.window;
  const int half = n / 2;
  const double* br = bave.r.data().data();
  const double* bg = bave.g.data().data();
  const double* bb = bave.b.data().data();
  ws.difference.resize_discard(w, h);
  double* diff = ws.difference.data().data();
  double max_d = 0.0;
  // Steps iii–v: D = (|ΔR| + |ΔG|) + |ΔB|, the seed's operation order.
  const auto store = [&](std::size_t i, double mr, double mg, double mb) {
    const double d = std::abs(mr - br[i]) + std::abs(mg - bg[i]) + std::abs(mb - bb[i]);
    diff[i] = d;
    max_d = std::max(max_d, d);
  };
  if (std::min(n, h) > kMaxColumnRows) {
    // A 16-bit column sum could wrap: take the means from per-channel
    // summed-area tables instead (allocating; never at the paper's sizes).
    const RgbMeans aave = window_mean_rgb(frame, n);
    for (std::size_t i = 0; i < frame.size(); ++i) {
      store(i, aave.r.data()[i], aave.g.data()[i], aave.b.data()[i]);
    }
    return max_d;
  }

  // Step ii: col[3x + c] is channel c summed over the window's (clamped)
  // rows at column x, slid down one row at a time like the binary median's
  // counts. Every sum is an exact integer, so each mean below is the one
  // IEEE division the seed made: q[S] = S / (n·n) inside, S / clamped area
  // at the edges.
  const int row_len = 3 * w;
  ws.window_colsum.assign(static_cast<std::size_t>(row_len), 0);
  ws.window_rowsum.resize(static_cast<std::size_t>(row_len));
  std::uint16_t* col = ws.window_colsum.data();
  std::uint16_t* rowsum = ws.window_rowsum.data();
  const auto* px = reinterpret_cast<const std::uint8_t*>(frame.data().data());
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
      rowk::tap_sum_u16<simd::Active>(col, 3, n, rowsum, 3 * (x_end - half));
      for (; x < x_end; ++x) {
        const std::uint16_t* s = rowsum + 3 * (x - half);
        store(row + static_cast<std::size_t>(x), q[s[0]], q[s[1]], q[s[2]]);
      }
    }
    for (; x < w; ++x) clamped_pixel(x);
  }
  return max_d;
}

SLJ_HOT_PATH double ObjectExtractor::extract_into(const RgbImage& frame, FrameWorkspace& ws,
                                                  BinaryImage& silhouette_out) const {
  const double max_d = difference_into(frame, ws);
  const int w = frame.width();
  const int h = frame.height();
  const double* diff = ws.difference.data().data();
  using V = simd::VecF64<simd::Active>;

  // Steps vi–viii fused without materialising the rounded 8-bit image:
  // lround(clamped) > th  ⇔  clamped >= th + 0.5 (lround rounds half away
  // from zero and clamped is non-negative), and th + 0.5 is exact in double,
  // so the mask is bit-identical to thresholding the rounded image R.
  // std::clamp(r, 0, 255) = min(max(r, 0), 255) lane-wise: r is never NaN
  // and never −0, so the vector compare/select sequence matches exactly.
  const bool scene_changed = max_d > 0.0 && max_d >= params_.min_max_difference;
  const double shift = max_d - 255.0;
  const double mask_threshold = static_cast<double>(params_.th_object) + 0.5;
  ws.raw_mask.resize_discard(w, h);
  std::uint8_t* mask = ws.raw_mask.data().data();
  if (scene_changed) {
    const V vshift = V::broadcast(shift);
    const V vzero = V::broadcast(0.0);
    const V v255 = V::broadcast(255.0);
    const V vth = V::broadcast(mask_threshold);
    const std::size_t k_end = ws.raw_mask.size();
    std::size_t k = 0;
    for (; k + static_cast<std::size_t>(V::kLanes) <= k_end;
         k += static_cast<std::size_t>(V::kLanes)) {
      const V clamped = V::min(V::max(V::load(diff + k) - vshift, vzero), v255);
      V::store_ge01(clamped, vth, mask + k);
    }
    for (; k < k_end; ++k) {
      const double clamped = std::clamp(diff[k] - shift, 0.0, 255.0);
      mask[k] = clamped >= mask_threshold ? 1 : 0;
    }
  } else {
    std::fill(mask, mask + ws.raw_mask.size(), 0);
  }

  median_filter_binary_into(ws.raw_mask, params_.median_window, ws.mask_integral,
                            ws.median_colsum, ws.smoothed);

  const BinaryImage* cleaned = &ws.smoothed;
  if (params_.keep_largest_only) {
    largest_component_into(*cleaned, true, ws.labeling, ws.pixel_stack, ws.largest);
    cleaned = &ws.largest;
  }
  if (params_.fill_holes) {
    fill_holes_into(*cleaned, ws.reached, ws.flood_stack, silhouette_out);
  } else {
    silhouette_out = *cleaned;
  }
  return max_d;
}

}  // namespace slj::seg
