// The frame pipeline: RGB frame → silhouette → thinned skeleton → cleaned
// skeleton graph → key points → feature candidates. This is the glue that
// turns the paper's Sections 2–4 into one call per frame. Human detection
// (the paper's first component) is Section 2's rule: the largest foreground
// component, holes filled, is the jumper; there is no other selection path.
#pragma once

#include <algorithm>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/frame_workspace.hpp"
#include "imaging/image.hpp"
#include "pose/classifier.hpp"
#include "pose/skeleton_features.hpp"
#include "segmentation/object_extractor.hpp"
#include "skelgraph/artifacts.hpp"

namespace slj::core {

struct PipelineParams {
  static constexpr int min_branch_vertices = 10;  ///< the paper's pruning threshold
  int num_areas = 8;
  pose::CandidateOptions candidates;  ///< the enumerator's constants; nothing to set
  /// Piecewise-linear refinement (ref [7]): edges are always split at bend
  /// vertices so articulations inside merged limbs (knee, elbow) become key
  /// points.
  static constexpr bool split_bends = true;
  static constexpr double bend_tolerance = 2.5;
};

/// Throws std::invalid_argument unless the pipeline and the classifier use
/// the same area partition. The classifier reads the pipeline's area states
/// as its own, so a mismatch does not fail by itself: a coarser pipeline's
/// "missing" state reads as one more area of a finer classifier. Every
/// entry point that pairs a classifier with pipeline parameters calls it.
void require_same_area_count(const PipelineParams& params, const pose::ClassifierConfig& config);

/// Everything the pipeline derives from one frame, kept so benches and
/// examples can inspect any intermediate stage.
struct FrameObservation {
  BinaryImage silhouette;
  BinaryImage raw_skeleton;       ///< Z-S output before graph cleanup
  skel::SkeletonGraph graph;      ///< after loop cut + pruning
  skel::CleanupStats cleanup;
  std::vector<skel::KeyPoint> key_points;
  std::vector<pose::FeatureCandidate> candidates;
  int bottom_row = -1;            ///< lowest silhouette row; -1 if empty
};

/// Derives the "jumping stage flag" observable: tracks the ground line from
/// the first frames of a clip and reports when the silhouette's lowest
/// point has left it.
///
/// Calibration spans the first kCalibrationFrames grounded frames: the
/// ground line is the max (lowest point in image coordinates) of their
/// bottom rows, so one under-segmented first frame — legs clipped, bottom
/// row too high — can no longer mis-flag the whole clip airborne. Frames
/// already assessed airborne against the running estimate never extend the
/// calibration, which keeps a jump that starts early from dragging the
/// ground line up into the air. Flags stay streaming: each frame is judged
/// against the estimate as of that frame, never retroactively. The flag
/// feeds pose::StageTracker, the one rule that turns it into stage bounds.
class GroundMonitor {
 public:
  /// Rows the lowest point must rise above the ground line to be airborne.
  static constexpr int kLiftThresholdPx = 3;
  /// Grounded frames the ground line is calibrated over.
  static constexpr int kCalibrationFrames = 5;

  /// Feeds one frame's bottom row; returns the airborne flag for it.
  bool airborne(int bottom_row) {
    if (bottom_row < 0) return ground_row_ >= 0 && last_airborne_;
    const bool flying = ground_row_ >= 0 && bottom_row < ground_row_ - kLiftThresholdPx;
    if (!flying && calibrated_frames_ < kCalibrationFrames) {
      ground_row_ = std::max(ground_row_, bottom_row);
      ++calibrated_frames_;
    }
    last_airborne_ = flying;
    return flying;
  }

  int ground_row() const { return ground_row_; }
  void reset() {
    ground_row_ = -1;
    calibrated_frames_ = 0;
    last_airborne_ = false;
  }

 private:
  int ground_row_ = -1;
  int calibrated_frames_ = 0;
  bool last_airborne_ = false;
};

class FramePipeline {
 public:
  explicit FramePipeline(PipelineParams params = {});

  const PipelineParams& params() const { return params_; }
  const pose::AreaEncoder& encoder() const { return encoder_; }
  const seg::ObjectExtractor& extractor() const { return extractor_; }

  /// Installs the empty-studio background plate.
  void set_background(const RgbImage& background);

  /// Full per-frame processing (the extractor's largest component is taken
  /// as the jumper). Every full-frame intermediate lives in `ws` and the
  /// result is written into `out`, so steady-state processing (same-sized
  /// frames through the same workspace and observation) allocates no
  /// full-frame buffer. The engines give each worker lane / live session its
  /// own workspace; a workspace must never be shared between concurrent
  /// calls.
  SLJ_HOT_PATH void process_into(const RgbImage& frame, FrameWorkspace& ws,
                                 FrameObservation& out) const;

  /// The stages after segmentation, from an already-extracted silhouette
  /// (ground-truth masks in tests and benches).
  void process_silhouette_into(const BinaryImage& silhouette, FrameWorkspace& ws,
                               FrameObservation& out) const;

 private:
  /// Stages after segmentation: thinning, graph cleanup, key points,
  /// candidates, bottom row. Expects out.silhouette to be set.
  void finish_observation(FrameWorkspace& ws, FrameObservation& out) const;

  PipelineParams params_;
  seg::ObjectExtractor extractor_;
  pose::AreaEncoder encoder_;
};

}  // namespace slj::core
