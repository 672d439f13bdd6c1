// The paper's object-extraction algorithm (Sec. 2), steps i–viii, plus the
// median-filter smoothing of Fig. 1(c) and a connected-component / hole-fill
// cleanup so downstream thinning sees one solid silhouette.
//
// The hot path is integer-domain up to the window means: each pixel's n×n
// RGB window sum comes from sliding 16-bit column sums (rowk kernels) and a
// horizontal n-tap sum, and the sum becomes a mean through a quotient table
// q[k] = k / (n·n) built once per extractor with the same IEEE division the
// seed's summed-area tables used. Every mean, and so every bit of D, the
// masks and max(D), equals the seed chain in tests/reference/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/frame_workspace.hpp"
#include "imaging/image.hpp"
#include "segmentation/background_model.hpp"

namespace slj::seg {

struct ExtractorParams {
  int window = 3;              ///< the paper's n (moving-window side), odd >= 1
  int th_object = 20;          ///< the paper's Th_Object, in [0, 255]
  int median_window = 5;       ///< silhouette smoothing window (Fig. 1c), odd >= 1
  /// Noise floor for the max-shift normalization (steps vi–vii). The paper
  /// rescales so max(D) = 255; on a frame where nothing moved that would
  /// amplify sensor noise into a phantom silhouette. When max(D) falls below
  /// this floor the scene is treated as unchanged and the mask stays empty.
  double min_max_difference = 12.0;
  bool keep_largest_only = true;
  bool fill_holes = true;
};

class ObjectExtractor {
 public:
  explicit ObjectExtractor(ExtractorParams params = {});

  /// Installs the empty-scene background (step i).
  void set_background(const RgbImage& background);

  /// Adds one more empty-scene frame to the background average.
  void accumulate_background(const RgbImage& background);

  bool has_background() const { return background_.has_background(); }
  const ExtractorParams& params() const { return params_; }

  /// Cap on the quotient table's size: n·n·255 + 1 entries, so windows
  /// 1, 3 and 5 are tabled (2 296 doubles, ≈18 KB, at n = 3) and larger
  /// windows divide per pixel instead.
  static constexpr std::size_t kMaxMeanTableEntries = 8192;

  /// The window-mean quotient table: entry k is k / (n·n) as a double, for
  /// every n×n window sum k of 8-bit pixels; empty when the window is too
  /// large to table.
  const std::vector<double>& mean_table() const { return mean_table_; }

  /// Steps ii–v: writes the difference D (step iv) to ws.difference and
  /// returns max(D) (step v). Window means at the frame's edge divide by the
  /// clamped window's area, as in the seed. A window and frame both taller
  /// than 257 rows, where a 16-bit column sum could wrap, take per-channel
  /// summed-area tables allocated per call instead.
  SLJ_HOT_PATH double difference_into(const RgbImage& frame, FrameWorkspace& ws) const;

  /// Runs steps ii–viii plus smoothing and cleanup on one frame. Every
  /// intermediate lives in the workspace: the difference D (difference_into) in
  /// ws.difference, the thresholded mask Obj (step viii) in ws.raw_mask and
  /// the median-smoothed mask (Fig. 1c) in ws.smoothed. The mask thresholds
  /// D directly, so the rounded 8-bit image R (steps vi–vii) is never built;
  /// the bits are provably the same. The final silhouette, after
  /// largest-component and hole fill, is written to `silhouette_out`. At
  /// steady state — same-sized frames through the same workspace, and
  /// windows or frames of at most 257 rows — no full-frame buffer is
  /// heap-allocated. Returns max(D) (step v).
  SLJ_HOT_PATH double extract_into(const RgbImage& frame, FrameWorkspace& ws,
                                   BinaryImage& silhouette_out) const;

 private:
  ExtractorParams params_;
  BackgroundModel background_;
  std::vector<double> mean_table_;
};

}  // namespace slj::seg
