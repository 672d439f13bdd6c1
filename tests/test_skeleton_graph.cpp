#include "skelgraph/skeleton_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/clip_engine.hpp"
#include "imaging/draw.hpp"
#include "imaging/frame_workspace.hpp"
#include "reference.hpp"
#include "skelgraph/artifacts.hpp"
#include "synth/dataset.hpp"

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

// ---- parity with the seed build in tests/reference/ ---------------------------

void expect_same_graph(const SkeletonGraph& got, const SkeletonGraph& want,
                       const std::string& label) {
  ASSERT_EQ(got.nodes().size(), want.nodes().size()) << label;
  for (std::size_t i = 0; i < got.nodes().size(); ++i) {
    const Node& g = got.nodes()[i];
    const Node& w = want.nodes()[i];
    EXPECT_EQ(g.id, w.id) << label << " node " << i;
    EXPECT_EQ(g.pos, w.pos) << label << " node " << i;
    EXPECT_EQ(g.type, w.type) << label << " node " << i;
    EXPECT_EQ(g.alive, w.alive) << label << " node " << i;
    EXPECT_EQ(g.cluster, w.cluster) << label << " node " << i;
  }
  ASSERT_EQ(got.edges().size(), want.edges().size()) << label;
  for (std::size_t i = 0; i < got.edges().size(); ++i) {
    const Edge& g = got.edges()[i];
    const Edge& w = want.edges()[i];
    EXPECT_EQ(g.id, w.id) << label << " edge " << i;
    EXPECT_EQ(g.a, w.a) << label << " edge " << i;
    EXPECT_EQ(g.b, w.b) << label << " edge " << i;
    EXPECT_EQ(g.path, w.path) << label << " edge " << i;
    EXPECT_EQ(g.length, w.length) << label << " edge " << i;
    EXPECT_EQ(g.alive, w.alive) << label << " edge " << i;
  }
}

void expect_same_stats(const CleanupStats& got, const CleanupStats& want,
                       const std::string& label) {
  EXPECT_EQ(got.build.skeleton_pixels, want.build.skeleton_pixels) << label;
  EXPECT_EQ(got.build.junction_pixels, want.build.junction_pixels) << label;
  EXPECT_EQ(got.build.junction_clusters, want.build.junction_clusters) << label;
  EXPECT_EQ(got.build.adjacent_junctions_removed, want.build.adjacent_junctions_removed) << label;
  EXPECT_EQ(got.build.pixel_graph_cycles, want.build.pixel_graph_cycles) << label;
  EXPECT_EQ(got.loops.loops_before, want.loops.loops_before) << label;
  EXPECT_EQ(got.loops.loops_after, want.loops.loops_after) << label;
  EXPECT_EQ(got.loops.edges_removed, want.loops.edges_removed) << label;
  EXPECT_EQ(got.loops.removed_length, want.loops.removed_length) << label;
  EXPECT_EQ(got.loops.kept_length, want.loops.kept_length) << label;
  EXPECT_EQ(got.prune.branches_removed, want.prune.branches_removed) << label;
  EXPECT_EQ(got.prune.rounds, want.prune.rounds) << label;
  EXPECT_EQ(got.prune.removed_length, want.prune.removed_length) << label;
}

/// Build and cleanup through the shipped workspace path against the seed
/// oracle, both with and without stats.
void expect_matches_seed(const BinaryImage& skeleton, FrameWorkspace& ws,
                         const std::string& label) {
  BuildStats got_build;
  BuildStats want_build;
  expect_same_graph(skel::build_skeleton_graph(skeleton, ws, &got_build),
                    reference::build_skeleton_graph(skeleton, &want_build), label + " build");
  CleanupStats got{got_build, {}, {}};
  CleanupStats want{want_build, {}, {}};
  expect_same_stats(got, want, label + " build");

  expect_same_graph(clean_skeleton(skeleton, ws, 10, &got),
                    reference::clean_skeleton(skeleton, 10, &want), label + " clean");
  expect_same_stats(got, want, label + " clean");
  expect_same_graph(clean_skeleton(skeleton, ws, 4), reference::clean_skeleton(skeleton, 4),
                    label + " clean(4)");
}

TEST(SkeletonGraphParity, MatchesSeedBuildOnPerfbenchStyleFrames) {
  // 23 clips of 45 frames (1 035 frames), seeded like perfbench's corpus
  // (100000 + seed · 1000 + 1 + i), thinned by the shipped chain; one
  // workspace serves every frame, as a worker lane's does.
  core::ClipEngine engine;
  FrameWorkspace ws;
  std::size_t frames = 0;
  for (std::uint32_t c = 0; c < 23; ++c) {
    synth::ClipSpec spec;
    spec.seed = 100000u + 7u * 1000u + 1u + c;
    spec.frame_count = 45;
    const core::ClipObservation observed = engine.process(synth::generate_clip(spec));
    for (std::size_t f = 0; f < observed.frames.size(); ++f, ++frames) {
      expect_matches_seed(observed.frames[f].raw_skeleton, ws,
                          "clip " + std::to_string(c) + " frame " + std::to_string(f));
      if (HasFailure()) return;  // one frame's diff is enough to read
    }
  }
  EXPECT_GE(frames, 1000u);
}

BinaryImage from_rows(const std::vector<std::string>& rows) {
  BinaryImage img(static_cast<int>(rows.front().size()), static_cast<int>(rows.size()), 0);
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) img.at(x, y) = rows[y][x] == '#' ? 1 : 0;
  }
  return img;
}

TEST(SkeletonGraphParity, MatchesSeedBuildOnSyntheticSkeletons) {
  std::vector<std::pair<std::string, BinaryImage>> cases = {
      {"empty", BinaryImage(6, 4, 0)},
      {"0x0", BinaryImage(0, 0)},
      {"line", simple_line()},
      {"t", t_shape()},
      {"ring", diamond_ring()},
      {"rings", from_rows({".#....#.#", "#.#..#...", ".#....#.#", ".........", "###......",
                           "#.#......", "###......"})},
      {"ring on the border", from_rows({"###", "#.#", "###"})},
      {"isolated pixels", from_rows({"#...#", ".....", "..#..", ".....", "#...#"})},
      {"junction cluster in a corner", from_rows({"###..", "###..", "##...", "...#.", "....#"})},
      {"junction cluster on an edge", from_rows({"..#..", ".###.", "#####", "#.#.#", "..#.."})},
      {"plus on the border", from_rows({"#.#", "###", "#.#"})},
      {"ring with a tail", from_rows({".#...", "#.#..", ".#...", ".#...", ".##.."})},
  };
  for (const int n : {1, 2, 3, 9}) {
    cases.push_back({"1x" + std::to_string(n) + " full", BinaryImage(1, n, 1)});
    cases.push_back({std::to_string(n) + "x1 full", BinaryImage(n, 1, 1)});
  }
  BinaryImage dotted_row(11, 1, 0);
  BinaryImage dotted_col(1, 11, 0);
  for (int i = 0; i < 11; i += 3) {
    dotted_row.at(i, 0) = 1;
    dotted_row.at(std::min(i + 1, 10), 0) = 1;
    dotted_col.at(0, i) = 1;
  }
  cases.push_back({"11x1 dotted", dotted_row});
  cases.push_back({"1x11 dotted", dotted_col});
  // Random masks reach every topology the tracer can meet: dense blobs of
  // junction pixels, chains between them, pure cycles and lone pixels.
  std::mt19937 rng(5);
  for (const double density : {0.08, 0.2, 0.35, 0.6}) {
    for (const auto& [w, h] : {std::pair<int, int>{1, 17}, {17, 1}, {9, 7}, {40, 31}}) {
      BinaryImage img(w, h, 0);
      std::bernoulli_distribution on(density);
      for (std::uint8_t& p : img.data()) p = on(rng) ? 1 : 0;
      cases.push_back({"random " + std::to_string(w) + "x" + std::to_string(h) + " p " +
                           std::to_string(density),
                       img});
    }
  }
  FrameWorkspace ws;  // reused across every size, as the engines reuse theirs
  for (const auto& [label, img] : cases) expect_matches_seed(img, ws, label);
}

}  // namespace
}  // namespace slj::skel
