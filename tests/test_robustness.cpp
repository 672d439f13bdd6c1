// Failure injection: the pipeline and analyzer must degrade gracefully —
// never crash, never emit malformed results — when frames are corrupted,
// the subject disappears, or the camera saturates.
#include <gtest/gtest.h>

#include <random>

#include "core/analyzer.hpp"
#include "core/trainer.hpp"
#include "synth/dataset.hpp"

namespace slj::core {
namespace {

synth::Clip test_clip(std::uint32_t seed = 33) {
  synth::ClipSpec spec;
  spec.seed = seed;
  spec.frame_count = 30;
  return synth::generate_clip(spec);
}

JumpAnalyzer trained_analyzer() {
  synth::DatasetSpec spec;
  spec.seed = 77;
  spec.train_clip_frames = {44, 43};
  spec.test_clip_frames = {};
  JumpAnalyzer analyzer({}, {});
  analyzer.train(synth::generate_dataset(spec));
  return analyzer;
}

TEST(Robustness, AllBlackFramesYieldUnknowns) {
  JumpAnalyzer analyzer = trained_analyzer();
  synth::Clip clip = test_clip();
  const RgbImage black(clip.background.width(), clip.background.height(), Rgb{0, 0, 0});
  std::vector<RgbImage> frames(10, black);
  const ClipAnalysis analysis = analyzer.analyze(clip.background, frames);
  ASSERT_EQ(analysis.frames.size(), 10u);
  // A uniformly black frame against a dark studio may segment as noise or
  // nothing; results must simply be well-formed.
  for (const auto& r : analysis.frames) {
    EXPECT_GE(pose::index_of(r.stage), 0);
    EXPECT_LE(pose::index_of(r.stage), 3);
  }
}

TEST(Robustness, SaturatedWhiteFrameDoesNotCrash) {
  JumpAnalyzer analyzer = trained_analyzer();
  synth::Clip clip = test_clip();
  clip.frames[10] = RgbImage(clip.background.width(), clip.background.height(),
                             Rgb{255, 255, 255});
  const ClipAnalysis analysis = analyzer.analyze(clip.background, clip.frames);
  EXPECT_EQ(analysis.frames.size(), clip.frames.size());
}

TEST(Robustness, SubjectVanishingMidClipKeepsSequenceSane) {
  JumpAnalyzer analyzer = trained_analyzer();
  synth::Clip clip = test_clip();
  // Subject disappears for three frames (occluder, dropout, ...).
  for (int i = 12; i < 15; ++i) clip.frames[static_cast<std::size_t>(i)] = clip.background;
  const ClipAnalysis analysis = analyzer.analyze(clip.background, clip.frames);
  ASSERT_EQ(analysis.frames.size(), clip.frames.size());
  // Stage trajectory stays monotone across the gap.
  int prev = 0;
  for (const auto& r : analysis.frames) {
    EXPECT_GE(pose::index_of(r.stage), prev);
    prev = pose::index_of(r.stage);
  }
}

TEST(Robustness, SinglePixelNoiseStormStillSegments) {
  JumpAnalyzer analyzer = trained_analyzer();
  synth::Clip clip = test_clip();
  std::mt19937 rng(5);
  RgbImage& frame = clip.frames[8];
  for (int i = 0; i < 500; ++i) {
    const int x = static_cast<int>(rng() % static_cast<unsigned>(frame.width()));
    const int y = static_cast<int>(rng() % static_cast<unsigned>(frame.height()));
    frame.at(x, y) = {255, 255, 255};
  }
  const ClipAnalysis analysis = analyzer.analyze(clip.background, clip.frames);
  EXPECT_EQ(analysis.frames.size(), clip.frames.size());
}

TEST(Robustness, TinyFramesWork) {
  // A pathologically small camera: nothing should assume a minimum size.
  FramePipeline pipeline;
  pipeline.set_background(RgbImage(8, 8, Rgb{10, 10, 10}));
  FrameWorkspace ws;
  FrameObservation obs;
  pipeline.process_into(RgbImage(8, 8, Rgb{200, 200, 200}), ws, obs);
  EXPECT_LE(obs.key_points.size(), 64u);
}

TEST(Robustness, SingleFrameClipAnalyzes) {
  JumpAnalyzer analyzer = trained_analyzer();
  const synth::Clip clip = test_clip();
  const ClipAnalysis analysis =
      analyzer.analyze(clip.background, {clip.frames.front()});
  EXPECT_EQ(analysis.frames.size(), 1u);
  EXPECT_FALSE(analysis.report.all_passed());  // one frame cannot show a full jump
}

TEST(Robustness, EmptyClipAnalyzes) {
  JumpAnalyzer analyzer = trained_analyzer();
  const synth::Clip clip = test_clip();
  const ClipAnalysis analysis = analyzer.analyze(clip.background, {});
  EXPECT_TRUE(analysis.frames.empty());
  EXPECT_EQ(analysis.report.passed_count(), 0);
}

TEST(Robustness, UntrainedClassifierStillRunsEndToEnd) {
  // Uniform CPTs everywhere: predictions are arbitrary but valid.
  JumpAnalyzer analyzer({}, {});
  const synth::Clip clip = test_clip();
  const ClipAnalysis analysis = analyzer.analyze(clip);
  EXPECT_EQ(analysis.frames.size(), clip.frames.size());
}

}  // namespace
}  // namespace slj::core
