#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <stdexcept>

#include "imaging/connected.hpp"
#include "imaging/frame_workspace.hpp"
#include "reference.hpp"
#include "segmentation/object_extractor.hpp"

namespace slj::reference {

ExtractionResult extract(const RgbImage& background, const RgbImage& frame) {
  using seg::ObjectExtractor;
  if (frame.width() != background.width() || frame.height() != background.height()) {
    throw std::invalid_argument("frame size differs from background");
  }
  // Steps i–ii: Bave, the windowed mean of the empty-scene plate.
  const RgbMeans bave = window_mean_rgb(background, seg::BackgroundModel::kWindow);
  // Step ii: Aave, the windowed mean of the frame with the moving object.
  const RgbMeans aave = window_mean_rgb(frame, seg::BackgroundModel::kWindow);

  ExtractionResult res;
  const int w = frame.width();
  const int h = frame.height();
  res.difference = Image<double>(w, h);

  // Steps iii–v: C = Aave − Bave per channel; D = |C_R| + |C_G| + |C_B|.
  double max_d = 0.0;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const double d = std::abs(aave.r.at(x, y) - bave.r.at(x, y)) +
                       std::abs(aave.g.at(x, y) - bave.g.at(x, y)) +
                       std::abs(aave.b.at(x, y) - bave.b.at(x, y));
      res.difference.at(x, y) = d;
      max_d = std::max(max_d, d);
    }
  }
  res.max_difference = max_d;

  // Steps vi–vii: shift so max(D) = 255, clamp negatives to zero. If the
  // scene differs nowhere (max_d = 0), or differs by less than the noise
  // floor (rescaling would only amplify sensor noise into a phantom
  // silhouette), everything stays background.
  const bool scene_changed = max_d > 0.0 && max_d >= ObjectExtractor::kMinMaxDifference;
  const double shift = max_d - 255.0;
  res.normalized = GrayImage(w, h);
  res.raw_mask = BinaryImage(w, h);
  for (std::size_t i = 0; i < res.normalized.size(); ++i) {
    const double r = scene_changed ? res.difference.data()[i] - shift : 0.0;
    const double clamped = std::clamp(r, 0.0, 255.0);
    res.normalized.data()[i] = static_cast<std::uint8_t>(std::lround(clamped));
    // Step viii: threshold at Th_Object.
    res.raw_mask.data()[i] = res.normalized.data()[i] > ObjectExtractor::kThObject ? 1 : 0;
  }

  // Fig. 1(c): median smoothing removes the "small holes and ridged edges".
  res.smoothed = median_filter_binary(res.raw_mask, ObjectExtractor::kMedianWindow);

  FrameWorkspace scratch;  // fresh cleanup scratch
  BinaryImage cleaned;
  largest_component_into(res.smoothed, true, scratch.labeling, scratch.pixel_stack, cleaned);
  res.silhouette = fill_holes(cleaned);
  return res;
}

std::size_t scaled_difference_mismatches(const Image<std::uint16_t>& t,
                                         const Image<double>& d) {
  if (t.width() != d.width() || t.height() != d.height()) return std::max(t.size(), d.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (std::abs(36.0 * d.data()[i] - static_cast<double>(t.data()[i])) > 1e-9) ++mismatches;
  }
  return mismatches;
}

BinaryImage fill_holes(const BinaryImage& img) {
  const int w = img.width();
  const int h = img.height();
  BinaryImage reached(w, h, 0);
  std::deque<PointI> queue;
  const auto visit = [&](int x, int y) {
    if (img.in_bounds(x, y) && img.at(x, y) == 0 && reached.at(x, y) == 0) {
      reached.at(x, y) = 1;
      queue.push_back({x, y});
    }
  };
  for (int x = 0; x < w; ++x) {
    visit(x, 0);
    visit(x, h - 1);
  }
  for (int y = 0; y < h; ++y) {
    visit(0, y);
    visit(w - 1, y);
  }
  while (!queue.empty()) {
    const PointI p = queue.front();
    queue.pop_front();
    visit(p.x + 1, p.y);
    visit(p.x - 1, p.y);
    visit(p.x, p.y + 1);
    visit(p.x, p.y - 1);
  }
  BinaryImage out(w, h, 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.data()[i] = img.data()[i] != 0 || reached.data()[i] == 0 ? 1 : 0;
  }
  return out;
}

BinaryImage silhouette(const RgbImage& background, const RgbImage& frame) {
  return extract(background, frame).silhouette;
}

GrayImage median_filter(const GrayImage& img, int k) {
  if (k < 1 || k % 2 == 0) throw std::invalid_argument("filter window must be odd and >= 1");
  const int half = k / 2;
  GrayImage out(img.width(), img.height());
  std::array<int, 256> hist{};
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      hist.fill(0);
      int count = 0;
      for (int dy = -half; dy <= half; ++dy) {
        for (int dx = -half; dx <= half; ++dx) {
          const int nx = x + dx;
          const int ny = y + dy;
          if (img.in_bounds(nx, ny)) {
            ++hist[img.at(nx, ny)];
            ++count;
          }
        }
      }
      // Walk the histogram to the median position.
      const int target = count / 2;
      int seen = 0;
      std::uint8_t median = 0;
      for (int v = 0; v < 256; ++v) {
        seen += hist[v];
        if (seen > target) {
          median = static_cast<std::uint8_t>(v);
          break;
        }
      }
      out.at(x, y) = median;
    }
  }
  return out;
}

}  // namespace slj::reference
