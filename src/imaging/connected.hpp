// Connected-component labelling and component statistics. The segmentation
// stage keeps only the largest component (the jumper) after thresholding.
#pragma once

#include <vector>

#include "core/annotations.hpp"
#include "imaging/box.hpp"
#include "imaging/image.hpp"

namespace slj {

/// Per-component summary produced by label_components.
struct ComponentStats {
  int label = 0;            ///< 1-based label as stored in the label image.
  std::size_t area = 0;     ///< pixel count
  PointI min{0, 0};         ///< bounding-box top-left
  PointI max{0, 0};         ///< bounding-box bottom-right (inclusive)
  PointF centroid{0, 0};
};

struct Labeling {
  Image<int> labels;  ///< 0 = background, 1..N = component id
  std::vector<ComponentStats> components;
};

/// Labels foreground components. `eight_connected` selects 8- vs
/// 4-connectivity (skeletons need 8).
Labeling label_components(const BinaryImage& img, bool eight_connected = true);

/// Allocation-free variant over `box`, which must hold every foreground
/// pixel of `img` (foreground_box, or any box around it). Labels are
/// numbered in row-major order of each component's first pixel, as a
/// full-frame scan numbers them; per-component stats land in `out` and the
/// DFS runs on `stack`, both reusing their storage. `out.labels` is sized to
/// the image, but only its pixels inside `box` are written (0 = background)
/// — and only those are read — so the work is the box's, not the frame's.
SLJ_HOT_PATH void label_components_into(const BinaryImage& img, const PixelBox& box,
                                        bool eight_connected, Labeling& out,
                                        std::vector<PointI>& stack);

/// Mask of the largest foreground component (empty input → all-zero mask;
/// of equal areas, the first in row-major order). The input's foreground
/// box bounds the labelling; `labeling` and `stack` are scratch, the mask
/// lands in `out` (full frame, 0/1), all reusing their storage. `out` must
/// not alias `img`.
SLJ_HOT_PATH void largest_component_into(const BinaryImage& img, bool eight_connected,
                                         Labeling& labeling, std::vector<PointI>& stack,
                                         BinaryImage& out);

/// Counts connected foreground components.
std::size_t component_count(const BinaryImage& img, bool eight_connected = true);

}  // namespace slj
