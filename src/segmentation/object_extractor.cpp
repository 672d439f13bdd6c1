#include "segmentation/object_extractor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/simd.hpp"
#include "imaging/connected.hpp"
#include "imaging/filters.hpp"
#include "imaging/morphology.hpp"
#include "imaging/row_kernels.hpp"
#include "obs/tracer.hpp"

namespace slj::seg {

static_assert(ObjectExtractor::kMaskMargin == 8442, "36·(255 − Th_Object − 0.5)");
static_assert(ObjectExtractor::kDifferenceScale * 3 * 255 <= 32767,
              "T must fit the signed 16-bit compares of the SIMD backends");

void ObjectExtractor::set_background(const RgbImage& background) {
  background_.set_background(background);
}

double ObjectExtractor::seed_difference(const RgbImage& frame, int x, int y) const {
  constexpr int half = BackgroundModel::kWindow / 2;
  const int w = frame.width();
  const int h = frame.height();
  int s[3] = {0, 0, 0};
  for (int yy = std::max(y - half, 0); yy <= std::min(y + half, h - 1); ++yy) {
    for (int xx = std::max(x - half, 0); xx <= std::min(x + half, w - 1); ++xx) {
      const Rgb p = frame.at(xx, yy);
      s[0] += p.r;
      s[1] += p.g;
      s[2] += p.b;
    }
  }
  const std::uint16_t* plate = background_.window_sums_row(y);
  const double area = static_cast<double>(BackgroundModel::window_span(x, w)) *
                      static_cast<double>(BackgroundModel::window_span(y, h));
  double d[3];
  for (int c = 0; c < 3; ++c) {
    d[c] = std::abs(static_cast<double>(s[c]) / area - static_cast<double>(plate[c * w + x]) / area);
  }
  return d[0] + d[1] + d[2];
}

SLJ_HOT_PATH double ObjectExtractor::difference_into(const RgbImage& frame,
                                                     FrameWorkspace& ws) const {
  if (!background_.has_background()) {
    throw std::logic_error("ObjectExtractor: background not set");
  }
  if (frame.width() != background_.width() || frame.height() != background_.height()) {
    throw std::invalid_argument("frame size differs from background");
  }
  constexpr int half = BackgroundModel::kWindow / 2;
  const int w = frame.width();
  const int h = frame.height();
  ws.difference36.resize_discard(w, h);
  ws.difference36_row_max.resize(static_cast<std::size_t>(h));
  std::uint16_t* t_plane = ws.difference36.data().data();
  // Steps ii–iv on integers: T = (36 / area) · Σ_c |S_c − B_c| per pixel.
  BackgroundModel::for_each_window_sum_row(
      frame, ws.window_ring, ws.window_colsum, ws.window_rowsum,
      [&](int y, const std::uint16_t* sums) {
        const int rows = BackgroundModel::window_span(y, h);
        const std::uint16_t* plate = background_.window_sums_row(y);
        std::uint16_t* t = t_plane + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
        std::uint16_t row_max = 0;
        if (w > 2 * half) {
          const auto scale =
              static_cast<std::uint16_t>(kDifferenceScale / (rows * BackgroundModel::kWindow));
          row_max = rowk::scaled_sad3_u16<simd::Active>(sums + half, plate + half, w, scale,
                                                        t + half, w - 2 * half);
        }
        const auto edge = [&](int x) {
          int sad = 0;
          for (int c = 0; c < 3; ++c) sad += std::abs(sums[c * w + x] - plate[c * w + x]);
          const int scale = kDifferenceScale / (rows * BackgroundModel::window_span(x, w));
          t[x] = static_cast<std::uint16_t>(scale * sad);
          row_max = std::max(row_max, t[x]);
        };
        for (int x = 0; x < std::min(half, w); ++x) edge(x);
        for (int x = std::max(w - half, half); x < w; ++x) edge(x);
        ws.difference36_row_max[static_cast<std::size_t>(y)] = row_max;
      });

  // Step v: max(D) is the largest seed D among the pixels where T == M.
  const auto& row_max = ws.difference36_row_max;
  const std::uint16_t m = row_max.empty() ? 0 : *std::max_element(row_max.begin(), row_max.end());
  double max_d = 0.0;
  if (m == 0) return max_d;  // S == B everywhere: every D is exactly 0
  for (int y = 0; y < h; ++y) {
    if (row_max[static_cast<std::size_t>(y)] != m) continue;
    const std::uint16_t* t = t_plane + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    for (int x = 0; x < w; ++x) {
      if (t[x] == m) max_d = std::max(max_d, seed_difference(frame, x, y));
    }
  }
  return max_d;
}

SLJ_HOT_PATH double ObjectExtractor::extract_into(const RgbImage& frame, FrameWorkspace& ws,
                                                  BinaryImage& silhouette_out) const {
  const int w = frame.width();
  const int h = frame.height();
  double max_d = 0.0;
  {
    obs::TraceSpan span("extract.mask");
    max_d = difference_into(frame, ws);
    ws.raw_mask.resize_discard(w, h);
    std::uint8_t* mask = ws.raw_mask.data().data();
    const std::size_t n = ws.raw_mask.size();
    // Steps vi–viii: lround(clamp(D − (max D − 255), 0, 255)) > Th_Object,
    // i.e. T ≥ M − kMaskMargin but at the exact ties, where the seed's
    // doubles decide (see the header).
    const bool scene_changed = max_d > 0.0 && max_d >= kMinMaxDifference;
    if (!scene_changed) {
      std::fill(mask, mask + n, 0);
    } else {
      const auto& row_max = ws.difference36_row_max;
      const int m = *std::max_element(row_max.begin(), row_max.end());
      const int thr = m - kMaskMargin;
      const std::uint16_t* t = ws.difference36.data().data();
      bool tie = thr == 0;
      if (thr >= 1) {
        tie = rowk::threshold_u16<simd::Active>(t, static_cast<std::uint16_t>(thr), mask, n);
      } else {
        std::fill(mask, mask + n, 1);  // every T ≥ 0 ≥ thr
      }
      if (tie) {
        const double shift = max_d - 255.0;
        const double mask_threshold = static_cast<double>(kThObject) + 0.5;
        for (std::size_t i = 0; i < n; ++i) {
          if (t[i] != thr) continue;
          const int x = static_cast<int>(i % static_cast<std::size_t>(w));
          const int y = static_cast<int>(i / static_cast<std::size_t>(w));
          const double r = std::clamp(seed_difference(frame, x, y) - shift, 0.0, 255.0);
          mask[i] = r >= mask_threshold ? 1 : 0;
        }
      }
    }
  }
  {
    obs::TraceSpan span("extract.median");
    median_filter_binary_into(ws.raw_mask, kMedianWindow, ws.median_colsum, ws.smoothed);
  }
  {
    obs::TraceSpan span("extract.components");
    largest_component_into(ws.smoothed, true, ws.labeling, ws.pixel_stack, ws.largest);
  }
  {
    obs::TraceSpan span("extract.fill");
    fill_holes_into(ws.largest, ws.reached, ws.flood_stack, silhouette_out);
  }
  return max_d;
}

}  // namespace slj::seg
