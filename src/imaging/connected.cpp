#include "imaging/connected.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/simd.hpp"

namespace slj {

Labeling label_components(const BinaryImage& img, bool eight_connected) {
  Labeling out;
  std::vector<PointI> stack;
  label_components_into(img, eight_connected, out, stack);
  return out;
}

SLJ_HOT_PATH void label_components_into(const BinaryImage& img, bool eight_connected, Labeling& out,
                           std::vector<PointI>& stack) {
  const int w = img.width();
  const int h = img.height();
  out.labels.assign(w, h, 0);
  out.components.clear();
  stack.clear();
  const std::span<const PointI> nbrs =
      eight_connected ? std::span<const PointI>(kNeighbours8) : std::span<const PointI>(kNeighbours4);
  int next_label = 0;
  const std::uint8_t* src = img.data().data();
  for (int y = 0; y < h; ++y) {
    // Seed scan: silhouette rows are overwhelmingly background, so skip the
    // zero spans a vector block at a time.
    const std::uint8_t* row = src + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    for (std::size_t xi = 0; xi < static_cast<std::size_t>(w); ++xi) {
      const std::size_t skip =
          simd::find_nonzero<simd::Active>(row + xi, static_cast<std::size_t>(w) - xi);
      xi += skip;
      if (xi >= static_cast<std::size_t>(w)) break;
      const int x = static_cast<int>(xi);
      if (out.labels.at(x, y) != 0) continue;
      ++next_label;
      ComponentStats stats;
      stats.label = next_label;
      stats.min = stats.max = {x, y};
      double sum_x = 0.0;
      double sum_y = 0.0;
      out.labels.at(x, y) = next_label;
      stack.push_back({x, y});
      while (!stack.empty()) {
        const PointI p = stack.back();
        stack.pop_back();
        ++stats.area;
        sum_x += p.x;
        sum_y += p.y;
        stats.min.x = std::min(stats.min.x, p.x);
        stats.min.y = std::min(stats.min.y, p.y);
        stats.max.x = std::max(stats.max.x, p.x);
        stats.max.y = std::max(stats.max.y, p.y);
        for (const PointI& d : nbrs) {
          const int nx = p.x + d.x;
          const int ny = p.y + d.y;
          if (img.in_bounds(nx, ny) && img.at(nx, ny) && out.labels.at(nx, ny) == 0) {
            out.labels.at(nx, ny) = next_label;
            stack.push_back({nx, ny});
          }
        }
      }
      stats.centroid = {sum_x / static_cast<double>(stats.area),
                        sum_y / static_cast<double>(stats.area)};
      out.components.push_back(stats);
    }
  }
}

SLJ_HOT_PATH void largest_component_into(const BinaryImage& img, bool eight_connected, Labeling& labeling,
                            std::vector<PointI>& stack, BinaryImage& out) {
  label_components_into(img, eight_connected, labeling, stack);
  out.assign(img.width(), img.height(), 0);
  if (labeling.components.empty()) return;
  const auto largest = std::max_element(
      labeling.components.begin(), labeling.components.end(),
      [](const ComponentStats& a, const ComponentStats& b) { return a.area < b.area; });
  simd::store_equal01_i32<simd::Active>(labeling.labels.data().data(), largest->label,
                                        out.data().data(), out.size());
}

std::size_t component_count(const BinaryImage& img, bool eight_connected) {
  return label_components(img, eight_connected).components.size();
}

}  // namespace slj
