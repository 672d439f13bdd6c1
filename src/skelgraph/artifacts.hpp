// Artifact analysis of raw thinning output (paper Sec. 3, Fig. 2): loops,
// corner/redundant-line spurs, junction clusters. Drives the Fig. 2 bench
// and the before/after comparisons in Fig. 3 / Fig. 4.
#pragma once

#include <cstddef>

#include "imaging/image.hpp"
#include "skelgraph/loop_cut.hpp"
#include "skelgraph/prune.hpp"
#include "skelgraph/skeleton_graph.hpp"

namespace slj::skel {

struct ArtifactReport {
  std::size_t skeleton_pixels = 0;
  std::size_t loops = 0;              ///< independent cycles in the pixel graph
  std::size_t junction_pixels = 0;
  std::size_t junction_clusters = 0;
  std::size_t adjacent_junctions = 0; ///< junction pixels collapsed away
  std::size_t end_points = 0;
  std::size_t short_branches = 0;     ///< leaf segments below the threshold
  double short_branch_length = 0.0;
};

/// Analyses a thinned skeleton without modifying it.
ArtifactReport analyze_artifacts(const BinaryImage& skeleton, int min_branch_vertices = 10);

struct CleanupStats {
  BuildStats build;
  LoopCutStats loops;
  PruneStats prune;
};

/// Cleanup pipeline: graph build → max-spanning-tree loop cut →
/// one-at-a-time pruning; returns the cleaned graph. The graph build's
/// full-frame temporaries live in `ws` and are reused frame over frame (see
/// build_skeleton_graph).
SkeletonGraph clean_skeleton(const BinaryImage& skeleton, FrameWorkspace& ws,
                             int min_branch_vertices = 10, CleanupStats* stats = nullptr);

}  // namespace slj::skel
