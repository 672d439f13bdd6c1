// FrameWorkspace: every full-frame scratch buffer the per-frame vision
// pipeline needs — the window sums' column and row scratch, difference and
// mask images, connected-component and hole-fill scratch, and the thinning
// frontier state. One workspace per worker lane (ClipEngine)
// or per live session (StreamEngine) makes steady-state frame processing
// free of full-frame heap allocations: every buffer is sized on the first
// frame and reused for the rest of the run.
//
// A workspace is plain mutable state with no invariants of its own; the
// into-style functions that take one (`ObjectExtractor::extract_into`,
// `fill_holes_into`, `zhang_suen_thin_into`, ...) each resize
// what they use, so a single workspace can serve frames of changing sizes
// (it re-allocates only when a frame outgrows the high-water mark). It is
// NOT safe to share one workspace between concurrent calls.
#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/connected.hpp"
#include "imaging/image.hpp"
#include "imaging/integral.hpp"

namespace slj {

struct FrameWorkspace {
  // --- windowed-mean scratch (paper Sec. 2 step ii) ---
  std::vector<std::uint16_t> window_colsum;  ///< RGB column sums over the window's rows
  std::vector<std::uint16_t> window_rowsum;  ///< one row's interior n×n RGB window sums

  // --- segmentation scratch (ObjectExtractor::extract_into) ---
  Image<double> difference;  ///< D(i,j) = |ΔR| + |ΔG| + |ΔB|
  BinaryImage raw_mask;      ///< thresholded mask before smoothing
  IntegralImage mask_integral;  ///< SAT of raw_mask (binary median, k > 127)
  std::vector<std::uint16_t> median_colsum;  ///< binary median's sliding column counts
  BinaryImage smoothed;      ///< after median smoothing (tracker input)
  BinaryImage largest;       ///< largest-component mask
  Labeling labeling;         ///< connected-component labels + stats
  BinaryImage reached;       ///< hole-fill closed map of the padded foreground box
  std::vector<PointI> pixel_stack;          ///< DFS stack for labeling
  std::vector<std::uint32_t> flood_stack;   ///< index stack for hole filling

  // --- skeleton-graph scratch (build_skeleton_graph / clean_skeleton) ---
  BinaryImage junction_mask;           ///< degree>=3 skeleton pixels ("is_junction")
  Labeling junction_labeling;          ///< 8-connected junction clusters / stats label image
  std::vector<PointI> junction_stack;  ///< DFS stack for the above
  BinaryImage graph_visited;           ///< pure-cycle sweep "visited" map

  // --- Zhang–Suen frontier scratch (zhang_suen_thin_into) ---
  /// Pixels whose 3×3 neighbourhood changed since they were last evaluated
  /// for the first / second sub-iteration; only these can change answer.
  std::vector<std::uint32_t> thin_candidates_first;
  std::vector<std::uint32_t> thin_candidates_second;
  std::vector<std::uint32_t> thin_eval;       ///< candidates being consumed
  std::vector<std::uint32_t> thin_deletions;  ///< simultaneous-deletion list
  std::vector<std::uint8_t> thin_marks;       ///< bit0/bit1: queued per type
};

}  // namespace slj
