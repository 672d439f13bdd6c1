#include "skelgraph/artifacts.hpp"

#include "imaging/frame_workspace.hpp"
#include "skelgraph/loop_cut.hpp"
#include "skelgraph/prune.hpp"

namespace slj::skel {

ArtifactReport analyze_artifacts(const BinaryImage& skeleton, int min_branch_vertices) {
  FrameWorkspace ws;
  BuildStats build;
  const SkeletonGraph graph = build_skeleton_graph(skeleton, ws, &build);

  ArtifactReport report;
  report.skeleton_pixels = build.skeleton_pixels;
  report.loops = build.pixel_graph_cycles;
  report.junction_pixels = build.junction_pixels;
  report.junction_clusters = build.junction_clusters;
  report.adjacent_junctions = build.adjacent_junctions_removed;
  for (const Node& n : graph.nodes()) {
    if (n.alive && n.type == NodeType::kEnd) ++report.end_points;
  }
  for (const Edge& e : graph.edges()) {
    if (!e.alive || e.a == e.b) continue;
    const bool leaf = graph.degree(e.a) == 1 || graph.degree(e.b) == 1;
    const bool anchored = graph.degree(e.a) >= 2 || graph.degree(e.b) >= 2;
    if (leaf && anchored && static_cast<int>(e.path.size()) < min_branch_vertices) {
      ++report.short_branches;
      report.short_branch_length += e.length;
    }
  }
  return report;
}

SkeletonGraph clean_skeleton(const BinaryImage& skeleton, FrameWorkspace& ws,
                             int min_branch_vertices, CleanupStats* stats) {
  CleanupStats local;
  SkeletonGraph graph = build_skeleton_graph(skeleton, ws, &local.build);
  local.loops = cut_loops(graph, SpanningPolicy::kMaximum);
  local.prune = prune_branches(graph, min_branch_vertices, PruningMode::kOneAtATime);
  if (stats != nullptr) *stats = local;
  return graph;
}

}  // namespace slj::skel
