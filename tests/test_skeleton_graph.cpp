#include "skelgraph/skeleton_graph.hpp"

#include <gtest/gtest.h>

#include "imaging/draw.hpp"
#include "imaging/frame_workspace.hpp"

namespace slj::skel {
namespace {

// The graph build on fresh scratch.
SkeletonGraph build_skeleton_graph(const BinaryImage& skeleton, BuildStats* stats = nullptr) {
  FrameWorkspace ws;
  return skel::build_skeleton_graph(skeleton, ws, stats);
}

/// A horizontal line y=5, x in [2,12].
BinaryImage simple_line() {
  BinaryImage img(16, 10, 0);
  for (int x = 2; x <= 12; ++x) img.at(x, 5) = 1;
  return img;
}

/// A 'T': horizontal line plus a vertical stem from its middle.
BinaryImage t_shape() {
  BinaryImage img(16, 16, 0);
  for (int x = 2; x <= 12; ++x) img.at(x, 4) = 1;
  for (int y = 5; y <= 12; ++y) img.at(7, y) = 1;
  return img;
}

/// A diamond ring (pure cycle, all pixels degree 2).
BinaryImage diamond_ring() {
  BinaryImage img(16, 16, 0);
  GrayImage tmp(16, 16, 0);
  draw_line(tmp, {8, 2}, {13, 7}, 1);
  draw_line(tmp, {13, 7}, {8, 12}, 1);
  draw_line(tmp, {8, 12}, {3, 7}, 1);
  draw_line(tmp, {3, 7}, {8, 2}, 1);
  for (std::size_t i = 0; i < tmp.size(); ++i) img.data()[i] = tmp.data()[i];
  return img;
}

TEST(SkeletonGraph, EmptyImageGivesEmptyGraph) {
  BuildStats stats;
  const SkeletonGraph g = build_skeleton_graph(BinaryImage(8, 8, 0), &stats);
  EXPECT_EQ(g.alive_node_count(), 0u);
  EXPECT_EQ(g.alive_edge_count(), 0u);
  EXPECT_EQ(stats.skeleton_pixels, 0u);
}

TEST(SkeletonGraph, LineHasTwoEndsOneEdge) {
  BuildStats stats;
  const SkeletonGraph g = build_skeleton_graph(simple_line(), &stats);
  EXPECT_EQ(g.alive_node_count(), 2u);
  EXPECT_EQ(g.alive_edge_count(), 1u);
  EXPECT_EQ(stats.junction_pixels, 0u);
  const Edge& e = g.edges().front();
  EXPECT_EQ(e.path.size(), 11u);
  EXPECT_DOUBLE_EQ(e.length, 10.0);
  for (const Node& n : g.nodes()) EXPECT_EQ(n.type, NodeType::kEnd);
}

TEST(SkeletonGraph, IsolatedPixelBecomesIsolatedNode) {
  BinaryImage img(8, 8, 0);
  img.at(4, 4) = 1;
  const SkeletonGraph g = build_skeleton_graph(img);
  ASSERT_EQ(g.alive_node_count(), 1u);
  EXPECT_EQ(g.nodes().front().type, NodeType::kIsolated);
  EXPECT_EQ(g.alive_edge_count(), 0u);
}

TEST(SkeletonGraph, TShapeHasJunctionAndThreeBranches) {
  BuildStats stats;
  const SkeletonGraph g = build_skeleton_graph(t_shape(), &stats);
  std::size_t ends = 0, junctions = 0;
  for (const Node& n : g.nodes()) {
    if (!n.alive) continue;
    ends += n.type == NodeType::kEnd ? 1 : 0;
    junctions += n.type == NodeType::kJunction ? 1 : 0;
  }
  EXPECT_EQ(ends, 3u);
  EXPECT_EQ(junctions, 1u);
  EXPECT_EQ(g.alive_edge_count(), 3u);
  EXPECT_EQ(g.cycle_count(), 0u);
}

TEST(SkeletonGraph, JunctionClusterIsCollapsed) {
  // A plus sign whose centre forms a 1-pixel junction; adjacent junction
  // pixels (if any) must merge into a single node.
  BinaryImage img(11, 11, 0);
  for (int i = 1; i <= 9; ++i) {
    img.at(i, 5) = 1;
    img.at(5, i) = 1;
  }
  BuildStats stats;
  const SkeletonGraph g = build_skeleton_graph(img, &stats);
  EXPECT_EQ(stats.junction_clusters, 1u);
  EXPECT_EQ(g.alive_edge_count(), 4u);
}

TEST(SkeletonGraph, PureCycleTracedAsSelfLoop) {
  BuildStats stats;
  const SkeletonGraph g = build_skeleton_graph(diamond_ring(), &stats);
  EXPECT_EQ(stats.pixel_graph_cycles, 1u);
  // One loop-seat node with a self-loop edge.
  std::size_t self_loops = 0;
  for (const Edge& e : g.edges()) {
    if (e.alive && e.a == e.b) ++self_loops;
  }
  EXPECT_EQ(self_loops, 1u);
  EXPECT_EQ(g.cycle_count(), 1u);
}

TEST(SkeletonGraph, RasterizeReproducesPixels) {
  const BinaryImage img = t_shape();
  const SkeletonGraph g = build_skeleton_graph(img);
  const BinaryImage back = g.rasterize(16, 16);
  EXPECT_EQ(back, img);
}

TEST(SkeletonGraph, DegreeCountsSelfLoopTwice) {
  const SkeletonGraph g = build_skeleton_graph(diamond_ring());
  for (const Node& n : g.nodes()) {
    if (n.alive && n.type == NodeType::kLoopSeat) {
      EXPECT_EQ(g.degree(n.id), 2);
    }
  }
}

TEST(SkeletonGraph, MergeDegree2NodeSplicesEdges) {
  // Build a path a--b--c manually and splice out b.
  SkeletonGraph g;
  Node a, b, c;
  a.pos = {0, 0};
  b.pos = {5, 0};
  c.pos = {10, 0};
  a.type = c.type = NodeType::kEnd;
  b.type = NodeType::kJunction;
  const int ia = g.add_node(a);
  const int ib = g.add_node(b);
  const int ic = g.add_node(c);
  Edge e1, e2;
  e1.a = ia;
  e1.b = ib;
  for (int x = 0; x <= 5; ++x) e1.path.push_back({x, 0});
  e2.a = ib;
  e2.b = ic;
  for (int x = 5; x <= 10; ++x) e2.path.push_back({x, 0});
  g.add_edge(e1);
  g.add_edge(e2);

  ASSERT_TRUE(g.merge_degree2_node(ib));
  EXPECT_FALSE(g.node(ib).alive);
  EXPECT_EQ(g.alive_edge_count(), 1u);
  // The merged edge spans a..c with 11 unique pixels.
  for (const Edge& e : g.edges()) {
    if (!e.alive) continue;
    EXPECT_EQ(e.path.size(), 11u);
    EXPECT_EQ(e.path.front(), (PointI{0, 0}));
    EXPECT_EQ(e.path.back(), (PointI{10, 0}));
  }
}

TEST(SkeletonGraph, MergeRefusesEndNodesAndJunctions) {
  const SkeletonGraph g0 = build_skeleton_graph(t_shape());
  SkeletonGraph g = g0;
  for (const Node& n : g0.nodes()) {
    if (n.type == NodeType::kEnd) {
      EXPECT_FALSE(g.merge_degree2_node(n.id));
    }
    if (n.type == NodeType::kJunction) {
      EXPECT_FALSE(g.merge_degree2_node(n.id));  // degree 3
    }
  }
}

TEST(SkeletonGraph, KeyPointsListsEndsFirst) {
  const SkeletonGraph g = build_skeleton_graph(t_shape());
  const std::vector<KeyPoint> pts = extract_key_points(g);
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].type, NodeType::kEnd);
  EXPECT_EQ(pts[1].type, NodeType::kEnd);
  EXPECT_EQ(pts[2].type, NodeType::kEnd);
  EXPECT_EQ(pts[3].type, NodeType::kJunction);
}

TEST(SkeletonGraph, ToDotContainsNodesAndEdges) {
  const SkeletonGraph g = build_skeleton_graph(simple_line());
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("graph skeleton"), std::string::npos);
  EXPECT_NE(dot.find("--"), std::string::npos);
}

}  // namespace
}  // namespace slj::skel
