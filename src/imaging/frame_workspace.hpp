// FrameWorkspace: every scratch buffer the per-frame vision pipeline needs —
// window-sum, difference, mask, component, hole-fill, bit-packed thinning
// and skeleton-graph scratch. One workspace per worker lane (ClipEngine) or
// live session (StreamEngine), sized on the first frame and reused, keeps
// segmentation and thinning free of heap allocations and the graph build's
// to the graph it returns (node clusters, edge paths).
//
// A workspace is plain mutable state with no invariants of its own; the
// into-style functions that take one (`ObjectExtractor::extract_into`,
// `fill_holes_into`, `zhang_suen_thin_into`, ...) each resize
// what they use, so a single workspace can serve frames of changing sizes
// (it re-allocates only when a frame outgrows the high-water mark). It is
// NOT safe to share one workspace between concurrent calls.
//
// After the mask, each stage works on the bounding box of its own input's
// foreground (imaging/box.hpp). Full-frame planes that a stage only uses
// as scratch — the component and junction labels, the graph's step and
// visited marks, the junction mask — are then written and read inside that
// box only, so outside it they hold whatever an earlier frame left; no
// stage reads a box, or a pixel outside its own box, left by another. The
// images a stage hands on (raw_mask, smoothed, largest, the silhouette and
// skeleton) are whole frames, zero outside the box.
#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/connected.hpp"
#include "imaging/image.hpp"

namespace slj {

struct FrameWorkspace {
  // --- window-sum scratch (paper Sec. 2 step ii) ---
  std::vector<std::uint8_t> window_ring;     ///< planar RGB rows the window spans
  std::vector<std::uint16_t> window_colsum;  ///< planar RGB column sums over the window's rows
  std::vector<std::uint16_t> window_rowsum;  ///< one row's planar n×n RGB window sums

  // --- segmentation scratch (ObjectExtractor::extract_into) ---
  Image<std::uint16_t> difference36;                ///< T = 36·D, D = |ΔR| + |ΔG| + |ΔB|
  std::vector<std::uint16_t> difference36_row_max;  ///< max T of each row
  BinaryImage raw_mask;                      ///< thresholded mask before smoothing
  std::vector<std::uint16_t> median_colsum;  ///< binary median's sliding column counts
  BinaryImage smoothed;                      ///< after median smoothing (component-labelling input)
  BinaryImage largest;                       ///< largest-component mask
  Labeling labeling;                         ///< connected-component labels + stats
  BinaryImage reached;                       ///< hole-fill closed map of the padded foreground box
  std::vector<PointI> pixel_stack;           ///< DFS stack for labeling
  std::vector<std::uint32_t> flood_stack;    ///< index stack for hole filling

  // --- skeleton-graph scratch (build_skeleton_graph / clean_skeleton) ---
  BinaryImage junction_mask;           ///< degree>=3 skeleton pixels ("is_junction")
  Labeling junction_labeling;          ///< junction clusters, then node id + 1 per node pixel
  std::vector<PointI> junction_stack;  ///< DFS stack for the above
  BinaryImage graph_steps;             ///< bit k: a segment left this pixel toward kNeighbours8[k]
  std::vector<PointI> graph_specials;  ///< node pixels, sorted: where segment traces start
  std::vector<PointI> graph_path;      ///< the segment being traced
  BinaryImage graph_visited;           ///< pure-cycle sweep "visited" map
  std::vector<int> graph_parent;       ///< union-find over nodes for the component count

  // --- Zhang–Suen scratch (zhang_suen_thin_into) ---
  /// The silhouette box's rows packed 64 pixels to a word, between two zero
  /// rows; then two one-row buffers for a sub-iteration's simultaneous
  /// deletions, and one change stamp per packed row.
  std::vector<std::uint64_t> thin_bits;
};

}  // namespace slj
