// Cross-module property sweeps on rendered jump frames: invariants that
// must hold for ANY frame of ANY clip, parameterized over seeds and frame
// positions.
#include <gtest/gtest.h>

#include <map>

#include "core/pipeline.hpp"
#include "imaging/connected.hpp"
#include "imaging/morphology.hpp"
#include "synth/dataset.hpp"
#include "thinning/zhang_suen.hpp"

namespace slj {
namespace {

struct Case {
  std::uint32_t seed;
  int frame;
};

class PipelineInvariants : public ::testing::TestWithParam<Case> {
 protected:
  static const synth::Clip& clip_for(std::uint32_t seed) {
    static std::map<std::uint32_t, synth::Clip> cache;
    auto it = cache.find(seed);
    if (it == cache.end()) {
      synth::ClipSpec spec;
      spec.seed = seed;
      spec.frame_count = 40;
      it = cache.emplace(seed, synth::generate_clip(spec)).first;
    }
    return it->second;
  }

  // This case's frame through the shipped per-frame path on fresh scratch.
  core::FrameObservation observe() {
    const auto [seed, frame] = GetParam();
    const synth::Clip& clip = clip_for(seed);
    pipeline.set_background(clip.background);
    FrameWorkspace ws;
    core::FrameObservation obs;
    pipeline.process_into(clip.frames[static_cast<std::size_t>(frame)], ws, obs);
    return obs;
  }

  core::FramePipeline pipeline;
};

TEST_P(PipelineInvariants, SilhouetteIsOneSolidComponent) {
  const auto obs = observe();
  EXPECT_EQ(component_count(obs.silhouette), 1u);
  // Hole-filled: filling again changes nothing.
  FrameWorkspace ws;
  BinaryImage refilled;
  fill_holes_into(obs.silhouette, ws.reached, ws.flood_stack, refilled);
  EXPECT_EQ(refilled, obs.silhouette);
}

TEST_P(PipelineInvariants, SkeletonPreservesConnectivityAndSubset) {
  const auto obs = observe();
  EXPECT_EQ(component_count(obs.raw_skeleton), component_count(obs.silhouette));
  for (std::size_t i = 0; i < obs.raw_skeleton.size(); ++i) {
    if (obs.raw_skeleton.data()[i]) EXPECT_TRUE(obs.silhouette.data()[i]);
  }
}

TEST_P(PipelineInvariants, CleanedGraphIsAForest) {
  const auto obs = observe();
  EXPECT_EQ(obs.graph.cycle_count(), 0u);
  // No surviving leaf BRANCH (end node -> nearest junction, walked through
  // any bend vertices the piecewise-linear split added) shorter than the
  // pruning threshold.
  for (const auto& n : obs.graph.nodes()) {
    if (!n.alive || obs.graph.degree(n.id) != 1) continue;
    int vertices = 1;
    int cur = n.id;
    int via_edge = -1;
    while (true) {
      const auto incident = obs.graph.incident_edges(cur);
      int next_edge = -1;
      for (const int eid : incident) {
        if (eid != via_edge) next_edge = eid;
      }
      if (next_edge < 0) break;
      const auto& e = obs.graph.edge(next_edge);
      vertices += static_cast<int>(e.path.size()) - 1;
      cur = e.a == cur ? e.b : e.a;
      via_edge = next_edge;
      if (obs.graph.degree(cur) != 2) break;  // junction or another end
    }
    // An isolated end-to-end path is the whole skeleton, exempt like in the
    // pruner; anchored branches must meet the threshold.
    if (obs.graph.degree(cur) >= 3) {
      EXPECT_GE(vertices, pipeline.params().min_branch_vertices) << "leaf node " << n.id;
    }
  }
}

TEST_P(PipelineInvariants, CandidatesAreWellFormed) {
  const auto obs = observe();
  const auto& enc = pipeline.encoder();
  for (const auto& c : obs.candidates) {
    for (int i = 0; i < pose::kPartCount; ++i) {
      const int a = c.features.areas[static_cast<std::size_t>(i)];
      EXPECT_GE(a, 0);
      EXPECT_LE(a, enc.missing_state());
      // Assigned parts never carry the missing code, and vice versa.
      EXPECT_EQ(c.nodes[static_cast<std::size_t>(i)] >= 0, a != enc.missing_state());
    }
    EXPECT_EQ(c.occupancy.size(), static_cast<std::size_t>(enc.num_areas()));
    EXPECT_GE(c.unexplained_areas, 0);
    // Every assigned part's area is occupied.
    for (int i = 0; i < pose::kPartCount; ++i) {
      const int a = c.features.areas[static_cast<std::size_t>(i)];
      if (a < enc.num_areas()) EXPECT_TRUE(c.occupancy[static_cast<std::size_t>(a)]);
    }
  }
}

TEST_P(PipelineInvariants, FootIsLowestAssignedPart) {
  const auto obs = observe();
  for (const auto& c : obs.candidates) {
    const int foot = c.nodes[static_cast<std::size_t>(pose::Part::kFoot)];
    ASSERT_GE(foot, 0);
    const int foot_y = obs.graph.node(foot).pos.y;
    for (int i = 0; i < pose::kPartCount; ++i) {
      const int node = c.nodes[static_cast<std::size_t>(i)];
      if (node >= 0) EXPECT_LE(obs.graph.node(node).pos.y, foot_y);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeedsAndFrames, PipelineInvariants,
                         ::testing::Values(Case{11, 2}, Case{11, 14}, Case{11, 24},
                                           Case{11, 36}, Case{57, 5}, Case{57, 20},
                                           Case{57, 33}, Case{91, 10}, Case{91, 28},
                                           Case{91, 39}));

}  // namespace
}  // namespace slj
