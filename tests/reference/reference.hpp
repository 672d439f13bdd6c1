// The seed implementations of the per-frame vision chain, kept as the
// oracles the parity suites compare the shipped workspace chain against.
// They are the straightforward versions of each stage — full-image sweeps,
// freshly allocated intermediates, no SIMD — so a bug in a fast path cannot
// hide behind the same bug in its oracle. Only test targets link this
// library (slj_reference); nothing under src/ may call it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/clip_engine.hpp"
#include "core/pipeline.hpp"
#include "imaging/image.hpp"
#include "segmentation/background_model.hpp"
#include "skelgraph/artifacts.hpp"
#include "thinning/zhang_suen.hpp"

namespace slj::reference {

/// Summed-area table over a single channel: sum(x0, y0, x1, y1) is O(1).
class IntegralImage {
 public:
  /// Builds the table from a functor mapping (x, y) → double.
  template <typename Fn>
  IntegralImage(int width, int height, Fn&& value_at)
      : width_(width),
        height_(height),
        table_((static_cast<std::size_t>(width) + 1) * (static_cast<std::size_t>(height) + 1),
               0.0) {
    for (int y = 0; y < height; ++y) {
      double row_sum = 0.0;
      for (int x = 0; x < width; ++x) {
        row_sum += value_at(x, y);
        tab(x + 1, y + 1) = tab(x + 1, y) + row_sum;
      }
    }
  }

  /// Inclusive-rectangle sum over [x0, x1] × [y0, y1]; clamps to the image.
  double sum(int x0, int y0, int x1, int y1) const;

  /// Mean of the window centred at (x, y) with side `n` (odd), clamped at
  /// image borders (the divisor is the clamped area, so border means stay
  /// unbiased).
  double window_mean(int x, int y, int n) const;

 private:
  double& tab(int x, int y) {
    return table_[static_cast<std::size_t>(y) * (static_cast<std::size_t>(width_) + 1) +
                  static_cast<std::size_t>(x)];
  }
  double tab(int x, int y) const {
    return table_[static_cast<std::size_t>(y) * (static_cast<std::size_t>(width_) + 1) +
                  static_cast<std::size_t>(x)];
  }

  int width_;
  int height_;
  std::vector<double> table_;
};

/// Per-channel moving-window mean of an RGB image; the paper's Aave / Bave.
struct RgbMeans {
  Image<double> r;
  Image<double> g;
  Image<double> b;
};

/// Per-channel moving-window mean of an RGB image over n×n windows (n odd,
/// >= 1, else std::invalid_argument), from one summed-area table per
/// channel: the seed's Aave / Bave.
RgbMeans window_mean_rgb(const RgbImage& img, int n);

/// Binary median over the mask's summed-area table: a pixel becomes
/// foreground iff at least half of its clamped k×k window is (k odd, >= 1).
/// The oracle median_filter_binary_into is checked against.
BinaryImage median_filter_binary(const BinaryImage& img, int k);

/// The paper's object extraction (Sec. 2), stage by stage, with the
/// extractor's one configuration (BackgroundModel::kWindow and the
/// ObjectExtractor constants).
struct ExtractionResult {
  Image<double> difference;   ///< D(i,j) = |ΔR| + |ΔG| + |ΔB|  (step iv)
  double max_difference = 0;  ///< max of D                     (step v)
  GrayImage normalized;       ///< R: shifted so max = 255, clamped at 0 (vi–vii)
  BinaryImage raw_mask;       ///< Obj: R > Th_Object            (step viii)
  BinaryImage smoothed;       ///< after median filter           (Fig. 1c)
  BinaryImage silhouette;     ///< after largest-component + hole fill
};

/// Runs steps ii–viii plus smoothing and cleanup on one frame against the
/// empty-scene `background` plate (step i).
ExtractionResult extract(const RgbImage& background, const RgbImage& frame);

/// Pixels where the extractor's integer T (ws.difference36) is not 36·D
/// for the seed's double D: |36·D − T| > 1e-9. Every D is a multiple of
/// 1/36 up to rounding far below that, so 0 means T is exactly 36·D
/// everywhere. A size mismatch counts every pixel of the larger image.
std::size_t scaled_difference_mismatches(const Image<std::uint16_t>& t,
                                         const Image<double>& d);

/// Shortcut returning only the final silhouette.
BinaryImage silhouette(const RgbImage& background, const RgbImage& frame);

/// The largest 8-connected foreground component as a 0/1 mask (the first in
/// row-major order among equal areas; all zero without foreground). A
/// breadth-first labelling of the whole frame.
BinaryImage largest_component(const BinaryImage& img);

/// Hole fill: every background pixel not 4-connected to the image border
/// becomes foreground. A per-pixel breadth-first flood from every border
/// background pixel over the whole frame; the result is 0/1.
BinaryImage fill_holes(const BinaryImage& img);

/// Median filter over a k×k window (k odd). Border pixels use the clamped
/// window. Works on full 8-bit grayscale range.
GrayImage median_filter(const GrayImage& img, int k);

/// Thins `img` (0/1 mask) to a one-pixel-wide skeleton by full-image
/// Zhang–Suen passes until one removes nothing. `stats`, when given,
/// receives iteration telemetry.
BinaryImage zhang_suen_thin(const BinaryImage& img, thin::ThinningStats* stats = nullptr);

/// One full Zhang–Suen pass (both sub-iterations) in place. Returns pixels
/// removed.
std::size_t zhang_suen_pass(BinaryImage& img);

/// Number of foreground neighbours of (x, y) — B(P1).
int neighbour_count(const BinaryImage& img, int x, int y);

/// Number of 0→1 transitions in the ordered ring P2..P9,P2 — A(P1).
int transition_count(const BinaryImage& img, int x, int y);

/// The seed skeleton-graph build (paper Sec. 3): a hash map from node pixel
/// to node id, a set of traced steps and one neighbour vector per traced
/// pixel, on freshly allocated scratch. Node and edge ids, paths and
/// `stats` are what the shipped workspace build must reproduce.
skel::SkeletonGraph build_skeleton_graph(const BinaryImage& skeleton,
                                         skel::BuildStats* stats = nullptr);

/// The seed cleanup: the build above, then the shipped maximum-spanning-tree
/// loop cut and one-at-a-time pruning.
skel::SkeletonGraph clean_skeleton(const BinaryImage& skeleton, int min_branch_vertices = 10,
                                   skel::CleanupStats* stats = nullptr);

/// The pipeline's stages after segmentation, from `silhouette`: reference
/// thinning and graph cleanup, then the shipped bend split and features with
/// `pipeline.params()` and `pipeline.encoder()`.
core::FrameObservation process_silhouette(const core::FramePipeline& pipeline,
                                          const BinaryImage& silhouette);

/// Full per-frame processing (the extractor's largest component is taken as
/// the jumper) with the reference extraction and thinning.
core::FrameObservation process(const core::FramePipeline& pipeline, const RgbImage& background,
                               const RgbImage& frame);

/// A whole clip as a plain serial loop of process() plus a GroundMonitor:
/// what ClipEngine must reproduce bit for bit.
core::ClipObservation process_clip(const core::FramePipeline& pipeline, const synth::Clip& clip);

}  // namespace slj::reference
