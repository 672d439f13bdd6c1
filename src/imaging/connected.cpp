#include "imaging/connected.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "core/simd.hpp"
#include "imaging/box.hpp"

namespace slj {

Labeling label_components(const BinaryImage& img, bool eight_connected) {
  Labeling out;
  out.labels.assign(img.width(), img.height(), 0);
  std::vector<PointI> stack;
  label_components_into(img, foreground_box(img), eight_connected, out, stack);
  return out;
}

SLJ_HOT_PATH void label_components_into(const BinaryImage& img, const PixelBox& box,
                                        bool eight_connected, Labeling& out,
                                        std::vector<PointI>& stack) {
  const std::size_t w = static_cast<std::size_t>(img.width());
  out.labels.resize_discard(img.width(), img.height());
  fill_box(out.labels, box, 0);
  out.components.clear();
  stack.clear();
  // A run of the row above or below touches a run [l, r] if it reaches
  // [l - 1, r + 1] (8-connectivity) or [l, r] (4-connectivity).
  const int reach = eight_connected ? 1 : 0;
  int next_label = 0;
  const std::uint8_t* src = img.data().data();
  int* labels = out.labels.data().data();
  for (int y = box.y0; y < box.y1; ++y) {
    const std::uint8_t* row = src + static_cast<std::size_t>(y) * w;
    const int* label_row = labels + static_cast<std::size_t>(y) * w;
    for (int x = box.x0; x < box.x1; ++x) {
      // Seed scan: silhouette rows are overwhelmingly background, so skip
      // the zero spans a vector block at a time.
      x += static_cast<int>(simd::find_nonzero<simd::Active>(
          row + x, static_cast<std::size_t>(box.x1 - x)));
      if (x >= box.x1) break;
      if (label_row[x] == 0) {
        ++next_label;
        ComponentStats stats;
        stats.label = next_label;
        stats.min = stats.max = {x, y};
        // Integer coordinate sums are exact, as the per-pixel double sums
        // they replace were.
        std::int64_t sum_x = 0;
        std::int64_t sum_y = 0;
        labels[static_cast<std::size_t>(y) * w + static_cast<std::size_t>(x)] = next_label;
        stack.push_back({x, y});
        while (!stack.empty()) {
          const PointI p = stack.back();
          stack.pop_back();
          // Grow the seed over its run's unlabelled pixels.
          const std::uint8_t* prow = src + static_cast<std::size_t>(p.y) * w;
          int* plab = labels + static_cast<std::size_t>(p.y) * w;
          int l = p.x;
          while (l > box.x0 && prow[l - 1] != 0 && plab[l - 1] == 0) plab[--l] = next_label;
          int r = p.x;
          while (r + 1 < box.x1 && prow[r + 1] != 0 && plab[r + 1] == 0) plab[++r] = next_label;
          const std::int64_t len = r - l + 1;
          stats.area += static_cast<std::size_t>(len);
          sum_x += (static_cast<std::int64_t>(l) + r) * len / 2;
          sum_y += static_cast<std::int64_t>(p.y) * len;
          stats.min = {std::min(stats.min.x, l), std::min(stats.min.y, p.y)};
          stats.max = {std::max(stats.max.x, r), std::max(stats.max.y, p.y)};
          // One seed per unlabelled run the rows above and below touch; the
          // seed labels the rest of its run when it is popped.
          for (const int ny : {p.y - 1, p.y + 1}) {
            if (ny < box.y0 || ny >= box.y1) continue;
            const std::uint8_t* nrow = src + static_cast<std::size_t>(ny) * w;
            int* nlab = labels + static_cast<std::size_t>(ny) * w;
            const int j_end = std::min(r + reach, box.x1 - 1);
            for (int j = std::max(l - reach, box.x0); j <= j_end; ++j) {
              if (nrow[j] == 0 || nlab[j] != 0) continue;
              nlab[j] = next_label;
              stack.push_back({j, ny});
              while (j + 1 <= j_end && nrow[j + 1] != 0 && nlab[j + 1] == 0) ++j;
            }
          }
        }
        stats.centroid = {static_cast<double>(sum_x) / static_cast<double>(stats.area),
                          static_cast<double>(sum_y) / static_cast<double>(stats.area)};
        out.components.push_back(stats);
      }
      // The rest of this run belongs to the component just seen.
      while (x + 1 < box.x1 && row[x + 1] != 0) ++x;
    }
  }
}

SLJ_HOT_PATH void largest_component_into(const BinaryImage& img, bool eight_connected,
                                         Labeling& labeling, std::vector<PointI>& stack,
                                         BinaryImage& out) {
  const PixelBox box = foreground_box(img);
  label_components_into(img, box, eight_connected, labeling, stack);
  out.resize_discard(img.width(), img.height());
  std::fill(out.data().begin(), out.data().end(), 0);
  if (labeling.components.empty()) return;
  // Row-major labelling keeps the first of equal-area components.
  const auto largest = std::max_element(
      labeling.components.begin(), labeling.components.end(),
      [](const ComponentStats& a, const ComponentStats& b) { return a.area < b.area; });
  const std::size_t w = static_cast<std::size_t>(img.width());
  const std::size_t span = static_cast<std::size_t>(largest->max.x - largest->min.x + 1);
  for (int y = largest->min.y; y <= largest->max.y; ++y) {
    const std::size_t offset =
        static_cast<std::size_t>(y) * w + static_cast<std::size_t>(largest->min.x);
    simd::store_equal01_i32<simd::Active>(labeling.labels.data().data() + offset, largest->label,
                                          out.data().data() + offset, span);
  }
}

std::size_t component_count(const BinaryImage& img, bool eight_connected) {
  return label_components(img, eight_connected).components.size();
}

}  // namespace slj
