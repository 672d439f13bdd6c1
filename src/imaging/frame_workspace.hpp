// FrameWorkspace: every full-frame scratch buffer the per-frame vision
// pipeline needs — window-mean integral tables, difference and mask
// images, connected-component and hole-fill scratch, and
// the thinning frontier state. One workspace per worker lane (ClipEngine)
// or per live session (StreamEngine) makes steady-state frame processing
// free of full-frame heap allocations: every buffer is sized on the first
// frame and reused for the rest of the run.
//
// A workspace is plain mutable state with no invariants of its own; the
// into-style functions that take one (`build_rgb_integrals`,
// `ObjectExtractor::extract_into`, `zhang_suen_thin_into`, ...) each resize
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
  IntegralImage integral_r;  ///< summed-area tables of the current frame
  IntegralImage integral_g;
  IntegralImage integral_b;
  std::vector<std::int32_t> sat_stage;  ///< int32 row prefix sums, one row per channel

  // --- segmentation scratch (ObjectExtractor::extract_into) ---
  Image<double> difference;  ///< D(i,j) = |ΔR| + |ΔG| + |ΔB|
  BinaryImage raw_mask;      ///< thresholded mask before smoothing
  IntegralImage mask_integral;  ///< SAT of raw_mask (binary median, k > 127)
  std::vector<std::uint16_t> median_colsum;  ///< binary median's sliding column counts
  BinaryImage smoothed;      ///< after median smoothing (tracker input)
  BinaryImage largest;       ///< largest-component mask
  Labeling labeling;         ///< connected-component labels + stats
  BinaryImage reached;       ///< hole-fill padded closed map
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

/// Builds the three per-channel summed-area tables of `img` into
/// ws.integral_{r,g,b} in one fused pass over the frame (one read per pixel
/// instead of three), vectorized on the configured slj::simd backend. Same
/// per-channel recurrence as IntegralImage::assign, so every table entry is
/// bit-identical at any backend.
void build_rgb_integrals(const RgbImage& img, FrameWorkspace& ws);

/// Serial scalar-backend twin of build_rgb_integrals, always compiled: the
/// reference the SIMD-vs-scalar property suite compares against (and the
/// whole story when the build sets SLJ_SIMD=OFF).
void build_rgb_integrals_scalar(const RgbImage& img, FrameWorkspace& ws);

/// Window sum for a window known to lie fully inside the image: the four
/// clamp-free table loads of IntegralImage::sum in the same order, so the
/// result is bit-identical to sum(x-half, y-half, x+half, y+half). `tab` and
/// `stride` come from IntegralImage::raw()/stride().
inline double interior_window_sum(const double* tab, std::size_t stride, int x, int y, int half) {
  const std::size_t r0 = static_cast<std::size_t>(y - half) * stride;      // table row y0
  const std::size_t r1 = static_cast<std::size_t>(y + half + 1) * stride;  // table row y1+1
  const std::size_t c0 = static_cast<std::size_t>(x - half);               // table col x0
  const std::size_t c1 = static_cast<std::size_t>(x + half + 1);           // table col x1+1
  return tab[r1 + c1] - tab[r1 + c0] - tab[r0 + c1] + tab[r0 + c0];
}

/// Interior window mean: interior_window_sum over `area`, which must be the
/// window's pixel count as a double (bit-identical to window_mean there).
inline double interior_window_mean(const double* tab, std::size_t stride, int x, int y, int half,
                                   double area) {
  return interior_window_sum(tab, stride, x, y, half) / area;
}

}  // namespace slj
