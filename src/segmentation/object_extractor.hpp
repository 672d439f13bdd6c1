// The paper's object-extraction algorithm (Sec. 2), steps i–viii, plus the
// median-filter smoothing of Fig. 1(c) and a largest-component / hole-fill
// cleanup so downstream thinning sees one solid silhouette. It has one
// configuration, the paper's: n = 3, Th_Object = 20, a 5×5 median.
//
// The hot path is integer-domain up to the window means: each frame's n×n
// window means come from the background model's own walk
// (BackgroundModel::for_each_window_mean: sliding 16-bit column sums, an
// n-tap row sum and the exact quotient table q[k] = k / (n·n)), the one the
// model builds Bave with. Every mean, and so every bit of D, the masks and
// max(D), equals the seed chain in tests/reference/.
#pragma once

#include "core/annotations.hpp"
#include "imaging/frame_workspace.hpp"
#include "imaging/image.hpp"
#include "segmentation/background_model.hpp"

namespace slj::seg {

class ObjectExtractor {
 public:
  /// The paper's Th_Object: the normalized 8-bit difference a pixel must
  /// exceed to be foreground (step viii).
  static constexpr int kThObject = 20;
  /// Side of the median window that smooths the silhouette (Fig. 1c).
  static constexpr int kMedianWindow = 5;
  /// Noise floor for the max-shift normalization (steps vi–vii). The paper
  /// rescales so max(D) = 255; on a frame where nothing moved that would
  /// amplify sensor noise into a phantom silhouette. When max(D) falls below
  /// this floor the scene is treated as unchanged and the mask stays empty.
  static constexpr double kMinMaxDifference = 12.0;

  /// Installs the empty-scene background (step i).
  void set_background(const RgbImage& background);

  bool has_background() const { return background_.has_background(); }

  /// Steps ii–v: writes the difference D (step iv) to ws.difference and
  /// returns max(D) (step v). Window means at the frame's edge divide by the
  /// clamped window's area, as in the seed.
  SLJ_HOT_PATH double difference_into(const RgbImage& frame, FrameWorkspace& ws) const;

  /// Runs steps ii–viii plus smoothing and cleanup on one frame. Every
  /// intermediate lives in the workspace: the difference D (difference_into) in
  /// ws.difference, the thresholded mask Obj (step viii) in ws.raw_mask and
  /// the median-smoothed mask (Fig. 1c) in ws.smoothed. The mask thresholds
  /// D directly, so the rounded 8-bit image R (steps vi–vii) is never built;
  /// the bits are provably the same. The final silhouette, the largest
  /// component with its holes filled, is written to `silhouette_out`. At
  /// steady state — same-sized frames through the same workspace — no
  /// full-frame buffer is heap-allocated. Returns max(D) (step v).
  SLJ_HOT_PATH double extract_into(const RgbImage& frame, FrameWorkspace& ws,
                                   BinaryImage& silhouette_out) const;

 private:
  BackgroundModel background_;
};

}  // namespace slj::seg
