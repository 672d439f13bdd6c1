#include "segmentation/object_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/simd.hpp"
#include "imaging/connected.hpp"
#include "imaging/filters.hpp"
#include "imaging/morphology.hpp"

namespace slj::seg {

void ObjectExtractor::set_background(const RgbImage& background) {
  background_.set_background(background);
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
  const double* br = bave.r.data().data();
  const double* bg = bave.g.data().data();
  const double* bb = bave.b.data().data();
  ws.difference.resize_discard(frame.width(), frame.height());
  double* diff = ws.difference.data().data();
  double max_d = 0.0;
  // Step ii is the background model's window-mean walk over this frame;
  // steps iii–v: D = (|ΔR| + |ΔG|) + |ΔB|, the seed's operation order.
  background_.for_each_window_mean(
      frame, ws.window_colsum, ws.window_rowsum,
      [&](std::size_t i, double mr, double mg, double mb) {
        const double d = std::abs(mr - br[i]) + std::abs(mg - bg[i]) + std::abs(mb - bb[i]);
        diff[i] = d;
        max_d = std::max(max_d, d);
      });
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
  const bool scene_changed = max_d > 0.0 && max_d >= kMinMaxDifference;
  const double shift = max_d - 255.0;
  const double mask_threshold = static_cast<double>(kThObject) + 0.5;
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

  median_filter_binary_into(ws.raw_mask, kMedianWindow, ws.median_colsum, ws.smoothed);
  largest_component_into(ws.smoothed, true, ws.labeling, ws.pixel_stack, ws.largest);
  fill_holes_into(ws.largest, ws.reached, ws.flood_stack, silhouette_out);
  return max_d;
}

}  // namespace slj::seg
