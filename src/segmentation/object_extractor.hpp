// The paper's object-extraction algorithm (Sec. 2), steps i–viii, plus the
// median-filter smoothing of Fig. 1(c) and a connected-component / hole-fill
// cleanup so downstream thinning sees one solid silhouette.
#pragma once

#include <cstdint>

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

/// Intermediate products, exposed so Fig. 1 can be regenerated stage by
/// stage and so tests can pin each step.
struct ExtractionResult {
  Image<double> difference;   ///< D(i,j) = |ΔR| + |ΔG| + |ΔB|  (step iv)
  double max_difference = 0;  ///< max of D                     (step v)
  GrayImage normalized;       ///< R: shifted so max = 255, clamped at 0 (vi–vii)
  BinaryImage raw_mask;       ///< Obj: R > Th_Object            (step viii)
  BinaryImage smoothed;       ///< after median filter           (Fig. 1c)
  BinaryImage silhouette;     ///< after largest-component + hole fill
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

  /// Runs steps ii–viii plus smoothing on one frame.
  ExtractionResult extract(const RgbImage& frame) const;

  /// Allocation-free fast path: same algorithm, but every intermediate lives
  /// in the workspace (difference in ws.difference, raw mask in ws.raw_mask,
  /// smoothed in ws.smoothed; the figure-grade `normalized` image is skipped
  /// — the mask thresholds the difference directly, provably the same bits)
  /// and the final silhouette is written to `silhouette_out`. At steady
  /// state — same-sized frames through the same workspace — no full-frame
  /// buffer is heap-allocated. Output is bit-identical to extract(). Returns
  /// max(D) (step v), which extract() reports as max_difference.
  SLJ_HOT_PATH double extract_into(const RgbImage& frame, FrameWorkspace& ws,
                                   BinaryImage& silhouette_out) const;

  /// Shortcut returning only the final silhouette.
  BinaryImage silhouette(const RgbImage& frame) const;

 private:
  ExtractorParams params_;
  BackgroundModel background_;
};

}  // namespace slj::seg
