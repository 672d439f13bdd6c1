#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include "synth/dataset.hpp"

namespace slj::core {
namespace {

synth::ClipSpec test_clip_spec(std::uint32_t seed = 11) {
  synth::ClipSpec spec;
  spec.seed = seed;
  spec.frame_count = 20;
  return spec;
}

// The shipped per-frame path on fresh scratch.
FrameObservation process(const FramePipeline& pipeline, const RgbImage& frame) {
  FrameWorkspace ws;
  FrameObservation obs;
  pipeline.process_into(frame, ws, obs);
  return obs;
}

TEST(FramePipeline, ProcessWithoutBackgroundThrows) {
  FramePipeline pipeline;
  EXPECT_THROW(process(pipeline, RgbImage(32, 32)), std::logic_error);
}

TEST(FramePipeline, ExtractsSilhouetteCloseToGroundTruth) {
  const synth::Clip clip = synth::generate_clip(test_clip_spec());
  const std::vector<BinaryImage> truth = synth::render_clean_silhouettes(test_clip_spec());
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  for (std::size_t i = 0; i < clip.frames.size(); i += 5) {
    const FrameObservation obs = process(pipeline, clip.frames[i]);
    EXPECT_GT(iou(obs.silhouette, truth[i]), 0.85) << "frame " << i;
  }
}

TEST(FramePipeline, SkeletonLiesInsideSilhouette) {
  const synth::Clip clip = synth::generate_clip(test_clip_spec());
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  const FrameObservation obs = process(pipeline, clip.frames[4]);
  for (int y = 0; y < obs.raw_skeleton.height(); ++y) {
    for (int x = 0; x < obs.raw_skeleton.width(); ++x) {
      if (obs.raw_skeleton.at(x, y)) EXPECT_TRUE(obs.silhouette.at(x, y));
    }
  }
}

TEST(FramePipeline, CleanedGraphHasNoLoopsOrShortLeafBranches) {
  const synth::Clip clip = synth::generate_clip(test_clip_spec());
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  for (std::size_t i = 0; i < clip.frames.size(); i += 4) {
    const FrameObservation obs = process(pipeline, clip.frames[i]);
    EXPECT_EQ(obs.graph.cycle_count(), 0u) << "frame " << i;
  }
}

TEST(FramePipeline, ProducesKeyPointsAndCandidates) {
  const synth::Clip clip = synth::generate_clip(test_clip_spec());
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  const FrameObservation obs = process(pipeline, clip.frames[8]);
  EXPECT_GE(obs.key_points.size(), 3u);
  EXPECT_FALSE(obs.candidates.empty());
  // Foot (lowest point) is assigned in every candidate.
  for (const auto& c : obs.candidates) {
    EXPECT_GE(c.nodes[static_cast<std::size_t>(pose::Part::kFoot)], 0);
  }
}

TEST(FramePipeline, KeyPointNearGroundTruthFoot) {
  const synth::Clip clip = synth::generate_clip(test_clip_spec());
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  const FrameObservation obs = process(pipeline, clip.frames[2]);
  const auto& c = obs.candidates.front();
  const int foot_node = c.nodes[static_cast<std::size_t>(pose::Part::kFoot)];
  const PointF foot = to_f(obs.graph.node(foot_node).pos);
  EXPECT_LT(distance(foot, clip.truth[2].parts.foot), 18.0);
}

TEST(FramePipeline, BottomRowTracksGroundAndFlight) {
  const synth::Clip clip = synth::generate_clip(test_clip_spec(12));
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  int grounded_bottom = -1;
  int min_airborne_bottom = 10000;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    const FrameObservation obs = process(pipeline, clip.frames[i]);
    ASSERT_GE(obs.bottom_row, 0);
    if (clip.truth[i].airborne) {
      min_airborne_bottom = std::min(min_airborne_bottom, obs.bottom_row);
    } else if (grounded_bottom < 0) {
      grounded_bottom = obs.bottom_row;
    }
  }
  ASSERT_GE(grounded_bottom, 0);
  EXPECT_LT(min_airborne_bottom, grounded_bottom - 3);  // flight visibly lifts the feet
}

TEST(FramePipeline, EmptyFrameGivesEmptyObservation) {
  const synth::Clip clip = synth::generate_clip(test_clip_spec());
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  const FrameObservation obs = process(pipeline, clip.background);  // no person
  EXPECT_EQ(count_foreground(obs.silhouette), 0u);
  EXPECT_TRUE(obs.candidates.empty());
  EXPECT_EQ(obs.bottom_row, -1);
}

TEST(FramePipeline, ProcessSilhouetteSkipsSegmentation) {
  const BinaryImage truth = synth::render_clean_silhouettes(test_clip_spec())[6];
  FramePipeline pipeline;
  FrameWorkspace ws;
  FrameObservation obs;
  pipeline.process_silhouette_into(truth, ws, obs);
  EXPECT_FALSE(obs.candidates.empty());
  EXPECT_EQ(obs.silhouette, truth);
}

TEST(GroundMonitor, CalibratesAndDetectsLift) {
  GroundMonitor monitor;
  EXPECT_FALSE(monitor.airborne(100));  // calibration frame
  EXPECT_EQ(monitor.ground_row(), 100);
  EXPECT_FALSE(monitor.airborne(99));   // within threshold
  EXPECT_TRUE(monitor.airborne(90));    // lifted
  EXPECT_FALSE(monitor.airborne(100));  // back down
}

TEST(GroundMonitor, EmptyFrameKeepsLastState) {
  GroundMonitor monitor;
  monitor.airborne(100);
  EXPECT_TRUE(monitor.airborne(80));
  EXPECT_TRUE(monitor.airborne(-1));  // no silhouette: stay airborne
  monitor.reset();
  EXPECT_FALSE(monitor.airborne(-1));
}

}  // namespace
}  // namespace slj::core
