#include "segmentation/object_extractor.hpp"

#include <algorithm>
#include <array>
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

namespace {

/// The seed's double D from one pixel's window sums S and the plate's B
/// over the same clamped window of `area` pixels: each channel's mean
/// minus the plate's, summed as (|ΔR| + |ΔG|) + |ΔB|. Pixels of a flat
/// region share (S, B, area), so the last answer is kept: a frame where
/// every pixel ties at max T divides once per distinct window, not three
/// times per pixel. Sums are at most 9·255 and areas at most 9, so each
/// fits 16 bits of a two-word key.
class SeedDifference {
 public:
  double operator()(const std::array<int, 7>& v) {
    const auto field = [&](int i, int shift) {
      return static_cast<std::uint64_t>(v[static_cast<std::size_t>(i)]) << shift;
    };
    const std::uint64_t frame_key = field(0, 0) | field(1, 16) | field(2, 32) | field(6, 48);
    const std::uint64_t plate_key = field(3, 0) | field(4, 16) | field(5, 32);
    if (frame_key != frame_key_ || plate_key != plate_key_) {
      frame_key_ = frame_key;
      plate_key_ = plate_key;
      const double area = static_cast<double>(v[6]);
      double d[3];
      for (std::size_t c = 0; c < 3; ++c) {
        d[c] = std::abs(static_cast<double>(v[c]) / area - static_cast<double>(v[3 + c]) / area);
      }
      d_ = d[0] + d[1] + d[2];
    }
    return d_;
  }

 private:
  std::uint64_t frame_key_ = 0;  // area 0: no real window
  std::uint64_t plate_key_ = 0;
  double d_ = 0.0;
};

}  // namespace

std::array<int, 7> ObjectExtractor::window_sums_at(const RgbImage& frame, int x, int y) const {
  constexpr int half = BackgroundModel::kWindow / 2;
  const int w = frame.width();
  const int h = frame.height();
  std::array<int, 7> key{};
  for (int yy = std::max(y - half, 0); yy <= std::min(y + half, h - 1); ++yy) {
    for (int xx = std::max(x - half, 0); xx <= std::min(x + half, w - 1); ++xx) {
      const Rgb p = frame.at(xx, yy);
      key[0] += p.r;
      key[1] += p.g;
      key[2] += p.b;
    }
  }
  const std::uint16_t* plate = background_.window_sums_row(y);
  for (int c = 0; c < 3; ++c) key[3 + c] = plate[c * w + x];
  key[6] = BackgroundModel::window_span(x, w) * BackgroundModel::window_span(y, h);
  return key;
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
  std::uint16_t m = 0;  // max T so far
  double max_d = 0.0;   // max seed D over the pixels where T == m
  SeedDifference seed_d;
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
        // Step v: max(D) is the largest seed D among the pixels where
        // T == M. Kept for the running M while the row's window sums are
        // at hand: a row that raises M restarts it, a row that reaches M
        // adds its ties. T == 0 everywhere means S == B, so every D is 0.
        if (row_max == 0 || row_max < m) return;
        if (row_max > m) {
          m = row_max;
          max_d = 0.0;
        }
        for (int x = 0; x < w; ++x) {
          if (t[x] != m) continue;
          max_d = std::max(max_d, seed_d({sums[x], sums[w + x], sums[2 * w + x], plate[x],
                                          plate[w + x], plate[2 * w + x],
                                          rows * BackgroundModel::window_span(x, w)}));
        }
      });
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
        SeedDifference seed_d;
        for (std::size_t i = 0; i < n; ++i) {
          if (t[i] != thr) continue;
          const int x = static_cast<int>(i % static_cast<std::size_t>(w));
          const int y = static_cast<int>(i / static_cast<std::size_t>(w));
          const double r =
              std::clamp(seed_d(window_sums_at(frame, x, y)) - shift, 0.0, 255.0);
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
