#include "segmentation/object_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/simd.hpp"
#include "imaging/connected.hpp"
#include "imaging/filters.hpp"
#include "imaging/morphology.hpp"
#include "imaging/row_kernels.hpp"

namespace slj::seg {
namespace {

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
    : params_((validate(params), params)), background_(params.window) {}

void ObjectExtractor::set_background(const RgbImage& background) {
  background_.set_background(background);
}

void ObjectExtractor::accumulate_background(const RgbImage& background) {
  background_.accumulate(background);
}

SLJ_HOT_PATH double ObjectExtractor::extract_into(const RgbImage& frame, FrameWorkspace& ws,
                                                  BinaryImage& silhouette_out) const {
  if (!background_.has_background()) {
    throw std::logic_error("ObjectExtractor: background not set");
  }
  if (frame.width() != background_.width() || frame.height() != background_.height()) {
    throw std::invalid_argument("frame size differs from background");
  }
  const RgbMeans& bave = background_.averaged();
  // Steps ii–v fused: the frame's windowed means are read straight off the
  // summed-area tables while the difference image is written, so the Aave
  // planes are never materialised. Interior pixels (all but a `half`-wide
  // border) take the clamp-free table path — vectorised on the configured
  // simd backend; both paths produce the exact doubles window_mean_rgb would.
  build_rgb_integrals(frame, ws);

  const int w = frame.width();
  const int h = frame.height();
  const int half = params_.window / 2;
  const double area = static_cast<double>(params_.window) * static_cast<double>(params_.window);
  const double* tr = ws.integral_r.raw();
  const double* tg = ws.integral_g.raw();
  const double* tb = ws.integral_b.raw();
  const std::size_t stride = ws.integral_r.stride();
  const double* br = bave.r.data().data();
  const double* bg = bave.g.data().data();
  const double* bb = bave.b.data().data();
  ws.difference.resize_discard(w, h);
  double* diff = ws.difference.data().data();

  // D is a sum/difference of exact table values, so the lane-wise max
  // reduction cannot change a single bit (max is order-independent: the
  // domain has no NaNs and no negative zeros).
  using V = simd::VecF64<simd::Active>;
  const V varea = V::broadcast(area);
  std::size_t i = 0;
  double scalar_max = 0.0;
  const auto clamped_pixel = [&](int x, int y) {
    const double mr = ws.integral_r.window_mean(x, y, params_.window);
    const double mg = ws.integral_g.window_mean(x, y, params_.window);
    const double mb = ws.integral_b.window_mean(x, y, params_.window);
    const double d = std::abs(mr - br[i]) + std::abs(mg - bg[i]) + std::abs(mb - bb[i]);
    diff[i] = d;
    scalar_max = std::max(scalar_max, d);
    ++i;
  };
  V vmax = V::broadcast(0.0);
  for (int y = 0; y < h; ++y) {
    if (y < half || y + half >= h) {
      for (int x = 0; x < w; ++x) clamped_pixel(x, y);
      continue;
    }
    int x = 0;
    for (; x < half && x < w; ++x) clamped_pixel(x, y);
    const std::size_t r0 = static_cast<std::size_t>(y - half) * stride;
    const std::size_t r1 = static_cast<std::size_t>(y + half + 1) * stride;
    const int x_end = w - half;
    for (; x + V::kLanes <= x_end; x += V::kLanes, i += static_cast<std::size_t>(V::kLanes)) {
      const std::size_t c0 = static_cast<std::size_t>(x - half);
      const std::size_t c1 = static_cast<std::size_t>(x + half + 1);
      const V dr =
          (rowk::window_sum_vec<simd::Active>(tr, r0, r1, c0, c1) / varea - V::load(br + i))
              .abs();
      const V dg =
          (rowk::window_sum_vec<simd::Active>(tg, r0, r1, c0, c1) / varea - V::load(bg + i))
              .abs();
      const V db =
          (rowk::window_sum_vec<simd::Active>(tb, r0, r1, c0, c1) / varea - V::load(bb + i))
              .abs();
      const V d = dr + dg + db;
      d.store(diff + i);
      vmax = V::max(vmax, d);
    }
    for (; x < x_end; ++x, ++i) {
      const double mr = interior_window_mean(tr, stride, x, y, half, area);
      const double mg = interior_window_mean(tg, stride, x, y, half, area);
      const double mb = interior_window_mean(tb, stride, x, y, half, area);
      const double d = std::abs(mr - br[i]) + std::abs(mg - bg[i]) + std::abs(mb - bb[i]);
      diff[i] = d;
      scalar_max = std::max(scalar_max, d);
    }
    for (; x < w; ++x) clamped_pixel(x, y);
  }
  const double max_d = std::max(scalar_max, vmax.reduce_max());

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
