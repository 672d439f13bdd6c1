// The paper's object-extraction algorithm (Sec. 2), steps i–viii, plus the
// median-filter smoothing of Fig. 1(c) and a largest-component / hole-fill
// cleanup so downstream thinning sees one solid silhouette. It has one
// configuration, the paper's: n = 3, Th_Object = 20, a 5×5 median.
//
// The hot path is integer-domain up to the mask. The frame's n×n window sums
// come from the walk the background model builds its plate with
// (BackgroundModel::for_each_window_sum_row), and one pass writes
//   T = (36 / area) · Σ_c |S_c − B_c|,
// with S and B the frame's and the plate's sums over the same clamped
// window. Every window area is in {1, 2, 3, 4, 6, 9} and divides 36, so T is
// an integer and exactly 36·D, D being the seed's difference of window means
// (step iv); T ≤ 36·3·255 = 27540 fits a signed 16-bit lane.
//
// Steps v–viii then need D in doubles at two kinds of pixel only. Let
// M = max T. The seed's mask bit is D − (max D − 255) ≥ Th_Object + 0.5,
// that is T ≥ M − 8442 exactly, 8442 being 36·(255 − Th_Object − 0.5).
// The seed's doubles are within 1e-12 of the exact values, and any two
// distinct T are 1/36 apart in D, so:
//  - max D is the largest seed D over the pixels with T == M (every other
//    pixel's D is at least 1/36 lower);
//  - a pixel with T ≠ M − 8442 gets the exact comparison's bit;
//  - at the exact ties T == M − 8442 rounding decides, so those pixels run
//    the seed's double arithmetic, in its operation order.
// Every bit of max D, the masks and the silhouette therefore equals the seed
// chain in tests/reference/, which alone keeps the double D and Bave.
#pragma once

#include <array>

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
  /// T = kDifferenceScale · D: the least common multiple of the window areas.
  static constexpr int kDifferenceScale = 36;
  /// A pixel is foreground iff T ≥ max T − kMaskMargin:
  /// 36·(255 − Th_Object − 0.5).
  static constexpr int kMaskMargin = kDifferenceScale * (255 - kThObject) - kDifferenceScale / 2;

  /// Installs the empty-scene background (step i).
  void set_background(const RgbImage& background);

  bool has_background() const { return background_.has_background(); }

  /// Steps ii–v: writes T = 36·D (step iv) to ws.difference36 and returns
  /// max(D) (step v), bit for bit the seed's double. Window means at the
  /// frame's edge are over the clamped window, as in the seed.
  SLJ_HOT_PATH double difference_into(const RgbImage& frame, FrameWorkspace& ws) const;

  /// Runs steps ii–viii plus smoothing and cleanup on one frame. Every
  /// intermediate lives in the workspace: T = 36·D (difference_into) in
  /// ws.difference36, the thresholded mask Obj (step viii) in ws.raw_mask and
  /// the median-smoothed mask (Fig. 1c) in ws.smoothed. The mask thresholds
  /// T directly, so neither the double D nor the rounded 8-bit image R
  /// (steps vi–vii) is built; the bits are provably the same. The final
  /// silhouette, the largest component with its holes filled, is written to
  /// `silhouette_out`. At steady state — same-sized frames through the same
  /// workspace — nothing is heap-allocated. Returns max(D) (step v).
  SLJ_HOT_PATH double extract_into(const RgbImage& frame, FrameWorkspace& ws,
                                   BinaryImage& silhouette_out) const;

 private:
  /// The frame's and the plate's window sums at (x, y), re-summed from the
  /// frame's bytes, and the clamped window's area: {S_R, S_G, S_B, B_R,
  /// B_G, B_B, area}, what the seed's D at that pixel is computed from.
  std::array<int, 7> window_sums_at(const RgbImage& frame, int x, int y) const;

  BackgroundModel background_;
};

}  // namespace slj::seg
