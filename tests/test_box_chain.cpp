// Property tests for the box-bound vision chain: every stage after the mask
// (binary median, largest component, hole fill, Zhang–Suen thinning and the
// skeleton-graph cleanup) works on its input's foreground box only, yet
// must give the full-frame reference's output bit for bit. The masks put
// foreground against every edge and corner, fill whole frames or nothing,
// and shrink to 1×N and N×1, and one workspace and one set of output
// images serve them all, so a stage that read or left a pixel outside its
// own box would fail here.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "imaging/box.hpp"
#include "imaging/connected.hpp"
#include "imaging/filters.hpp"
#include "imaging/frame_workspace.hpp"
#include "imaging/morphology.hpp"
#include "reference.hpp"
#include "skelgraph/artifacts.hpp"
#include "thinning/zhang_suen.hpp"

namespace slj {
namespace {

using Case = std::pair<std::string, BinaryImage>;

/// Noise of density `p` plus a few solid discs, inside [x0, x1) × [y0, y1).
BinaryImage random_mask(std::mt19937& rng, int w, int h, int x0, int y0, int x1, int y1,
                        double p) {
  BinaryImage img(w, h, 0);
  std::bernoulli_distribution on(p);
  for (int y = y0; y < y1; ++y) {
    for (int x = x0; x < x1; ++x) img.at(x, y) = on(rng) ? 1 : 0;
  }
  std::uniform_int_distribution<int> cx(x0, x1 - 1), cy(y0, y1 - 1), r(1, 5);
  for (int i = 0; i < 3; ++i) {
    const int ox = cx(rng), oy = cy(rng), rr = r(rng);
    for (int y = std::max(oy - rr, y0); y < std::min(oy + rr + 1, y1); ++y) {
      for (int x = std::max(ox - rr, x0); x < std::min(ox + rr + 1, x1); ++x) {
        if ((x - ox) * (x - ox) + (y - oy) * (y - oy) <= rr * rr) img.at(x, y) = 1;
      }
    }
  }
  return img;
}

std::vector<Case> edge_and_corner_masks() {
  std::vector<Case> cases;
  std::mt19937 rng(32);
  const int w = 37, h = 29;
  // Regions flush with each edge and each corner, then the whole frame.
  const struct {
    const char* name;
    int x0, y0, x1, y1;
  } regions[] = {
      {"top", 8, 0, 29, 9},         {"bottom", 8, 20, 29, 29},   {"left", 0, 6, 10, 23},
      {"right", 27, 6, 37, 23},     {"top-left", 0, 0, 12, 10},  {"top-right", 25, 0, 37, 10},
      {"bottom-left", 0, 19, 12, 29}, {"bottom-right", 25, 19, 37, 29},
      {"whole frame", 0, 0, 37, 29}, {"centre", 13, 10, 24, 19},
  };
  for (const auto& r : regions) {
    for (const double p : {0.15, 0.5, 0.85}) {
      cases.push_back({std::string(r.name) + " p " + std::to_string(p),
                       random_mask(rng, w, h, r.x0, r.y0, r.x1, r.y1, p)});
    }
  }
  return cases;
}

std::vector<Case> degenerate_masks() {
  std::vector<Case> cases = {
      {"0x0", BinaryImage(0, 0)},        {"1x1 empty", BinaryImage(1, 1, 0)},
      {"1x1 full", BinaryImage(1, 1, 1)}, {"20x15 empty", BinaryImage(20, 15, 0)},
      {"20x15 full", BinaryImage(20, 15, 1)}, {"70x9 full", BinaryImage(70, 9, 1)},
  };
  std::mt19937 rng(7);
  for (const int n : {2, 5, 64, 65, 130}) {
    cases.push_back({"1x" + std::to_string(n) + " full", BinaryImage(1, n, 1)});
    cases.push_back({std::to_string(n) + "x1 full", BinaryImage(n, 1, 1)});
    for (const double p : {0.3, 0.7}) {
      cases.push_back({"1x" + std::to_string(n) + " p " + std::to_string(p),
                       random_mask(rng, 1, n, 0, 0, 1, n, p)});
      cases.push_back({std::to_string(n) + "x1 p " + std::to_string(p),
                       random_mask(rng, n, 1, 0, 0, n, 1, p)});
    }
  }
  return cases;
}

/// One frame size, one workspace: the box is the whole frame, then shrinks
/// to a corner, moves to the opposite corner, and grows back.
std::vector<Case> shrinking_then_growing_masks() {
  std::mt19937 rng(11);
  const int w = 90, h = 70;
  return {
      {"whole", random_mask(rng, w, h, 0, 0, w, h, 0.55)},
      {"top-left", random_mask(rng, w, h, 0, 0, 20, 15, 0.6)},
      {"bottom-right", random_mask(rng, w, h, 75, 58, 90, 70, 0.6)},
      {"middle", random_mask(rng, w, h, 30, 20, 60, 50, 0.5)},
      {"whole again", random_mask(rng, w, h, 0, 0, w, h, 0.45)},
      {"empty", BinaryImage(w, h, 0)},
      {"whole full", BinaryImage(w, h, 1)},
  };
}

void expect_same_graph(const skel::SkeletonGraph& got, const skel::SkeletonGraph& want,
                       const std::string& label) {
  ASSERT_EQ(got.nodes().size(), want.nodes().size()) << label;
  for (std::size_t i = 0; i < got.nodes().size(); ++i) {
    const skel::Node& g = got.nodes()[i];
    const skel::Node& w = want.nodes()[i];
    EXPECT_TRUE(g.id == w.id && g.pos == w.pos && g.type == w.type && g.alive == w.alive &&
                g.cluster == w.cluster)
        << label << " node " << i;
  }
  ASSERT_EQ(got.edges().size(), want.edges().size()) << label;
  for (std::size_t i = 0; i < got.edges().size(); ++i) {
    const skel::Edge& g = got.edges()[i];
    const skel::Edge& w = want.edges()[i];
    EXPECT_TRUE(g.id == w.id && g.a == w.a && g.b == w.b && g.path == w.path &&
                g.length == w.length && g.alive == w.alive)
        << label << " edge " << i;
  }
}

/// The stages' outputs and scratch, shared by every case a test runs.
struct Chain {
  FrameWorkspace ws;
  BinaryImage median, largest, filled, skeleton;
};

/// Every box-bound stage on `mask` against its reference.
void expect_chain_matches_reference(const BinaryImage& mask, Chain& chain,
                                    const std::string& label) {
  for (const int k : {1, 3, 5, 7}) {
    median_filter_binary_into(mask, k, chain.ws.median_colsum, chain.median);
    EXPECT_EQ(chain.median, reference::median_filter_binary(mask, k)) << label << " median k " << k;
  }
  largest_component_into(mask, true, chain.ws.labeling, chain.ws.pixel_stack, chain.largest);
  EXPECT_EQ(chain.largest, reference::largest_component(mask)) << label << " largest";

  fill_holes_into(mask, chain.ws.reached, chain.ws.flood_stack, chain.filled);
  EXPECT_EQ(chain.filled, reference::fill_holes(mask)) << label << " fill";

  thin::ThinningStats got_stats;
  thin::ThinningStats want_stats;
  thin::zhang_suen_thin_into(mask, chain.ws, chain.skeleton, &got_stats);
  const BinaryImage want_skeleton = reference::zhang_suen_thin(mask, &want_stats);
  EXPECT_EQ(chain.skeleton, want_skeleton) << label << " thin";
  EXPECT_EQ(got_stats.iterations, want_stats.iterations) << label << " thin iterations";
  EXPECT_EQ(got_stats.removed, want_stats.removed) << label << " thin removed";

  // The cleanup on the thinned mask, and the graph build on the raw mask,
  // which reaches junction clusters the thinning never leaves.
  for (const auto& [name, image] :
       {std::pair<const char*, const BinaryImage*>{"skeleton", &want_skeleton}, {"mask", &mask}}) {
    skel::CleanupStats got;
    skel::CleanupStats want;
    expect_same_graph(skel::clean_skeleton(*image, chain.ws, 10, &got),
                      reference::clean_skeleton(*image, 10, &want),
                      label + " clean " + name);
    EXPECT_EQ(got.build.skeleton_pixels, want.build.skeleton_pixels) << label << " " << name;
    EXPECT_EQ(got.build.junction_clusters, want.build.junction_clusters) << label << " " << name;
    EXPECT_EQ(got.build.pixel_graph_cycles, want.build.pixel_graph_cycles)
        << label << " " << name;
    EXPECT_EQ(got.loops.edges_removed, want.loops.edges_removed) << label << " " << name;
    EXPECT_EQ(got.prune.branches_removed, want.prune.branches_removed) << label << " " << name;
  }
}

TEST(BoxChain, ForegroundBoxBoundsEveryNonzeroPixel) {
  std::vector<Case> cases = edge_and_corner_masks();
  for (Case& c : degenerate_masks()) cases.push_back(std::move(c));
  for (const auto& [label, mask] : cases) {
    int x0 = mask.width(), y0 = mask.height(), x1 = 0, y1 = 0;
    for (int y = 0; y < mask.height(); ++y) {
      for (int x = 0; x < mask.width(); ++x) {
        if (mask.at(x, y) == 0) continue;
        x0 = std::min(x0, x);
        y0 = std::min(y0, y);
        x1 = std::max(x1, x + 1);
        y1 = std::max(y1, y + 1);
      }
    }
    const PixelBox box = foreground_box(mask);
    if (x1 == 0) {
      EXPECT_TRUE(box.empty()) << label;
    } else {
      EXPECT_EQ(box.x0, x0) << label;
      EXPECT_EQ(box.y0, y0) << label;
      EXPECT_EQ(box.x1, x1) << label;
      EXPECT_EQ(box.y1, y1) << label;
    }
  }
}

TEST(BoxChain, MatchesReferenceOnMasksTouchingEveryEdgeAndCorner) {
  Chain chain;
  for (const auto& [label, mask] : edge_and_corner_masks()) {
    expect_chain_matches_reference(mask, chain, label);
    if (HasFailure()) return;
  }
}

TEST(BoxChain, MatchesReferenceOnEmptyFullAndOnePixelWideFrames) {
  Chain chain;
  for (const auto& [label, mask] : degenerate_masks()) {
    expect_chain_matches_reference(mask, chain, label);
    if (HasFailure()) return;
  }
}

TEST(BoxChain, ReusedWorkspaceSurvivesABoxThatShrinksThenGrows) {
  // Twice through, so the second pass starts from the first pass's last
  // (full) box and every stage's stale planes hold foreground everywhere.
  Chain chain;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& [label, mask] : shrinking_then_growing_masks()) {
      expect_chain_matches_reference(mask, chain, "pass " + std::to_string(pass) + " " + label);
      if (HasFailure()) return;
    }
  }
}

TEST(BoxChain, LabelsAreNumberedInRowMajorOrderInsideTheBox) {
  // Three components in the box [2, 9) × [1, 6) of a 12×8 frame. Labels
  // follow each component's first pixel in row-major order, as a
  // full-frame scan numbers them, and the stats are the components'.
  BinaryImage img(12, 8, 0);
  for (const PointI p : {PointI{6, 1}, {7, 1}, {2, 3}, {3, 3}, {3, 4}, {8, 5}, {8, 4}}) {
    img.at(p) = 1;
  }
  const PixelBox box = foreground_box(img);
  EXPECT_EQ(box.x0, 2);
  EXPECT_EQ(box.y0, 1);
  EXPECT_EQ(box.x1, 9);
  EXPECT_EQ(box.y1, 6);
  Labeling labeling;
  labeling.labels.assign(12, 8, 7);  // stale labels everywhere
  std::vector<PointI> stack;
  label_components_into(img, box, true, labeling, stack);
  struct Want {
    std::size_t area;
    PointI min, max;
    PointF centroid;
  };
  const Want want[] = {{2, {6, 1}, {7, 1}, {6.5, 1.0}},
                       {3, {2, 3}, {3, 4}, {8.0 / 3.0, 10.0 / 3.0}},
                       {2, {8, 4}, {8, 5}, {8.0, 4.5}}};
  ASSERT_EQ(labeling.components.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    const ComponentStats& c = labeling.components[i];
    EXPECT_EQ(c.label, static_cast<int>(i) + 1);
    EXPECT_EQ(c.area, want[i].area) << i;
    EXPECT_EQ(c.min, want[i].min) << i;
    EXPECT_EQ(c.max, want[i].max) << i;
    EXPECT_EQ(c.centroid.x, want[i].centroid.x) << i;
    EXPECT_EQ(c.centroid.y, want[i].centroid.y) << i;
  }
  for (int y = box.y0; y < box.y1; ++y) {
    for (int x = box.x0; x < box.x1; ++x) {
      if (img.at(x, y) == 0) {
        EXPECT_EQ(labeling.labels.at(x, y), 0) << x << "," << y;
      }
    }
  }
  EXPECT_EQ(labeling.labels.at(3, 4), 2);
  EXPECT_EQ(labeling.labels.at(8, 5), 3);
}

}  // namespace
}  // namespace slj
