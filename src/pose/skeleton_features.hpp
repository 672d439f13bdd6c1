// From cleaned skeleton graph to feature vectors.
//
// Training (paper Sec. 4.1): the annotator supplies Head/Hand/Foot (we have
// all five parts from ground truth); each part snaps to the nearest skeleton
// key point; the torso is the skeleton path from the Head key point to the
// Foot key point and the waist sits at its arc-length midpoint.
//
// Testing (paper Sec. 4.2): "the lowest point is Foot" — then every
// consistent labelling of the remaining key points is enumerated and the
// classifier keeps the labelling whose feature vector scores highest.
#pragma once

#include <optional>
#include <vector>

#include "pose/features.hpp"
#include "skelgraph/skeleton_graph.hpp"

namespace slj::pose {

/// Head→Foot torso path and its midpoint, the waist origin (Sec. 4.1).
struct TorsoEstimate {
  int head_node = -1;
  int foot_node = -1;
  double path_length = 0.0;
  PointF waist;
  bool connected = false;  ///< false: no graph path, waist = straight midpoint
};

/// Shortest path (by segment length) between two alive nodes; returns the
/// arc-length midpoint. Falls back to the straight-line midpoint when the
/// nodes are in different components.
TorsoEstimate estimate_torso(const skel::SkeletonGraph& graph, int head_node, int foot_node);

/// Alive node nearest an image point, or -1 if the graph is empty.
int nearest_node(const skel::SkeletonGraph& graph, PointF p);

/// One hypothesised body-part labelling of the key points.
struct FeatureCandidate {
  FeatureVector features;
  PointF waist;
  /// Node id per part; -1 = part missing.
  std::array<int, kPartCount> nodes{-1, -1, -1, -1, -1};
  /// Area-occupancy bits (size = encoder.num_areas()): occupancy[k] != 0
  /// iff some key point lies in area k around this waist — the evidence of
  /// the paper's eight observed Area I…VIII nodes (Fig. 7).
  std::vector<std::uint8_t> occupancy;
  /// Areas occupied by *some* key point but by no assigned part: evidence
  /// this labelling leaves unexplained. The classifier charges a clutter
  /// penalty per such area, which stops "call everything missing" labellings
  /// from outscoring honest ones.
  int unexplained_areas = 0;
};

/// The candidate enumerator's constants. The struct has no settable value;
/// it stays a type so callers that pass PipelineParams::candidates keep
/// compiling.
struct CandidateOptions {
  static constexpr int kMaxHeadCandidates = 3;  ///< topmost end nodes tried as Head
  static constexpr int kMaxFreePoints = 7;      ///< key points considered for Chest/Hand/Knee
  /// Geometric plausibility: Chest may not sit below the waist and Knee may
  /// not sit above it (by more than this slack in pixels).
  static constexpr double kVerticalSlack = 4.0;
};

/// Enumerates feature candidates for a test frame (Sec. 4.2). Empty when
/// the graph has no nodes.
std::vector<FeatureCandidate> enumerate_candidates(const skel::SkeletonGraph& graph,
                                                   const AreaEncoder& encoder,
                                                   const CandidateOptions& options = {});

/// Builds the training feature vector by snapping ground-truth part
/// locations to skeleton key points (within `max_snap_distance` pixels;
/// farther parts are coded "missing"). Also returns the torso estimate used
/// for the waist. Nullopt when the graph has no nodes.
std::optional<FeatureCandidate> features_from_truth(const skel::SkeletonGraph& graph,
                                                    const AreaEncoder& encoder,
                                                    const PartPoints& truth,
                                                    double max_snap_distance = 14.0);

}  // namespace slj::pose
