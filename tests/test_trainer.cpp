// The engine-backed trainer against a serial oracle: the original per-frame
// loop (the reference chain + GroundMonitor, one frame at a time) kept
// here. The trained model must match it byte for byte by save(),
// and the TrainingStats field for field.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "core/analyzer.hpp"
#include "core/trainer.hpp"
#include "reference.hpp"
#include "synth/dataset.hpp"

namespace slj::core {
namespace {

// ---- oracle ----------------------------------------------------------------

pose::PartPoints truth_points(const synth::FrameTruth& truth) {
  return {truth.parts.head, truth.parts.chest, truth.parts.hand, truth.parts.knee,
          truth.parts.foot};
}

void count_missing(const pose::FeatureCandidate& candidate, const FramePipeline& pipeline,
                   TrainingStats& stats) {
  for (const int area : candidate.features.areas) {
    if (area == pipeline.encoder().missing_state()) ++stats.missing_part_slots;
  }
}

TrainingStats oracle_train(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                           const synth::Dataset& dataset) {
  TrainingStats stats;
  for (const synth::Clip& clip : dataset.train) {
    pose::PoseId prev = pose::kResetPose;
    pose::Stage stage = pose::Stage::kBeforeJumping;
    GroundMonitor ground;
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      ++stats.frames;
      const FrameObservation obs = reference::process(pipeline, clip.background, clip.frames[i]);
      const bool airborne = ground.airborne(obs.bottom_row);
      const synth::FrameTruth& truth = clip.truth[i];
      const auto candidate =
          pose::features_from_truth(obs.graph, pipeline.encoder(), truth_points(truth));
      if (!candidate.has_value()) {
        ++stats.frames_without_skeleton;
        continue;
      }
      count_missing(*candidate, pipeline, stats);
      classifier.observe(truth.pose, *candidate, prev, stage, airborne);
      prev = truth.pose;
      stage = truth.stage;
    }
  }
  return stats;
}

// ---- comparison ------------------------------------------------------------

std::string saved(const pose::PoseDbnClassifier& classifier) {
  std::ostringstream out;
  classifier.save(out);
  return out.str();
}

void expect_same_stats(const TrainingStats& got, const TrainingStats& want) {
  EXPECT_EQ(got.frames, want.frames);
  EXPECT_EQ(got.frames_without_skeleton, want.frames_without_skeleton);
  EXPECT_EQ(got.missing_part_slots, want.missing_part_slots);
}

/// Trains with the engine-backed trainer, through both overloads (the
/// caller's engine at two lanes, and a FramePipeline's parameters), and with
/// the oracle; every model and stats must agree exactly.
void expect_matches_oracle(const synth::Dataset& dataset) {
  FramePipeline pipeline;
  pose::PoseDbnClassifier trained;
  const TrainingStats stats = train_on_dataset(trained, pipeline, dataset);

  ClipEngine engine(PipelineParams{}, ClipEngineConfig{2});
  pose::PoseDbnClassifier on_engine;
  const TrainingStats engine_stats = train_on_dataset(on_engine, engine, dataset);

  FramePipeline oracle_pipeline;
  pose::PoseDbnClassifier oracle;
  const TrainingStats oracle_stats = oracle_train(oracle, oracle_pipeline, dataset);

  expect_same_stats(stats, oracle_stats);
  expect_same_stats(engine_stats, oracle_stats);
  EXPECT_EQ(stats.frames, dataset.train_frames());
  EXPECT_EQ(saved(trained), saved(oracle));
  EXPECT_EQ(saved(on_engine), saved(oracle));
}

/// The paper's training split (12 clips, 522 frames); no test clips.
synth::Dataset paper_training_set() {
  synth::DatasetSpec spec;
  spec.test_clip_frames.clear();
  return synth::generate_dataset(spec);
}

synth::Dataset two_clip_set() {
  synth::DatasetSpec spec;
  spec.train_clip_frames = {44, 43};
  spec.test_clip_frames.clear();
  return synth::generate_dataset(spec);
}

TEST(Trainer, PaperSetMatchesSerialOracle) {
  const synth::Dataset dataset = paper_training_set();
  ASSERT_EQ(dataset.train_frames(), 522u);
  expect_matches_oracle(dataset);
}

TEST(Trainer, TwoClipSetMatchesSerialOracle) {
  const synth::Dataset dataset = two_clip_set();
  expect_matches_oracle(dataset);
}

// Training reads only the graphs and airborne flags, and encodes with the
// classifier's own encoder: a 12-area model trained on a default 8-area
// engine's observations equals one trained on a 12-area engine.
TEST(Trainer, TrainOnClipIsAreaAgnostic) {
  const synth::Dataset dataset = two_clip_set();
  const pose::ClassifierConfig twelve{.num_areas = 12};

  ClipEngine eight_engine(PipelineParams{}, ClipEngineConfig{2});
  pose::PoseDbnClassifier from_eight(twelve);
  TrainingStats from_eight_stats;
  for (const synth::Clip& clip : dataset.train) {
    from_eight_stats += train_on_clip(from_eight, eight_engine.process(clip), clip);
  }

  PipelineParams twelve_params;
  twelve_params.num_areas = 12;
  ClipEngine twelve_engine(twelve_params, ClipEngineConfig{2});
  pose::PoseDbnClassifier on_twelve(twelve);
  const TrainingStats on_twelve_stats = train_on_dataset(on_twelve, twelve_engine, dataset);

  expect_same_stats(from_eight_stats, on_twelve_stats);
  EXPECT_EQ(saved(from_eight), saved(on_twelve));
  EXPECT_NE(saved(from_eight), saved(pose::PoseDbnClassifier(twelve)));
}

// A clip loaded with `truth 0` has no truth rows: training must refuse it
// before observing anything rather than index past the truth.
TEST(Trainer, TrainOnClipRejectsClipWithoutTruthPerFrame) {
  synth::ClipSpec spec;
  spec.frame_count = 6;
  synth::Clip clip = synth::generate_clip(spec);
  ClipEngine engine(PipelineParams{}, ClipEngineConfig{2});
  const ClipObservation observation = engine.process(clip);
  pose::PoseDbnClassifier classifier;

  clip.truth.pop_back();
  EXPECT_THROW(train_on_clip(classifier, observation, clip), std::invalid_argument);
  clip.truth.clear();
  try {
    train_on_clip(classifier, observation, clip);
    ADD_FAILURE() << "a truthless clip trained";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("truth"), std::string::npos) << e.what();
  }
  EXPECT_EQ(classifier.training_frames(), 0.0);
}

// The shipped per-frame path on fresh scratch.
FrameObservation process(const FramePipeline& pipeline, const RgbImage& frame) {
  FrameWorkspace ws;
  FrameObservation obs;
  pipeline.process_into(frame, ws, obs);
  return obs;
}

TEST(Trainer, AnalyzerTrainsOnItsOwnEngineLikeTheOracle) {
  const synth::Dataset dataset = two_clip_set();
  JumpAnalyzer analyzer(PipelineParams{}, pose::ClassifierConfig{});
  analyzer.train(dataset);
  FramePipeline oracle_pipeline;
  pose::PoseDbnClassifier oracle;
  oracle_train(oracle, oracle_pipeline, dataset);
  EXPECT_EQ(saved(analyzer.classifier()), saved(oracle));
}

TEST(Trainer, LeavesTheCallersBackgroundUntouched) {
  const synth::Dataset dataset = two_clip_set();
  const synth::Clip probe = synth::generate_clip({});
  FramePipeline pipeline;
  pipeline.set_background(probe.background);
  const FrameObservation before = process(pipeline, probe.frames[10]);
  // Sanity: the last training clip's plate would segment the probe differently.
  FramePipeline overwritten;
  overwritten.set_background(dataset.train.back().background);
  ASSERT_NE(process(overwritten, probe.frames[10]).silhouette.data(), before.silhouette.data());

  pose::PoseDbnClassifier classifier;
  train_on_dataset(classifier, pipeline, dataset);
  const FrameObservation after = process(pipeline, probe.frames[10]);
  EXPECT_EQ(after.silhouette.data(), before.silhouette.data());
}

}  // namespace
}  // namespace slj::core
