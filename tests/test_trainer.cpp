// The engine-backed trainer against a serial oracle: the original per-frame
// loop (FramePipeline::process + GroundMonitor, one frame at a time) kept
// here. The trained model must match it byte for byte by save(),
// and the TrainingStats field for field, for the plain and the TAN path.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "bayes/structure.hpp"
#include "core/trainer.hpp"
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
    pipeline.set_background(clip.background);
    pose::PoseId prev = pose::kResetPose;
    pose::Stage stage = pose::Stage::kBeforeJumping;
    GroundMonitor ground;
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      ++stats.frames;
      const FrameObservation obs = pipeline.process(clip.frames[i]);
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

TrainingStats oracle_train_tan(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                               const synth::Dataset& dataset) {
  struct Tuple {
    pose::PoseId pose;
    pose::FeatureCandidate candidate;
    pose::PoseId prev;
    pose::Stage stage;
    bool airborne;
  };
  TrainingStats stats;
  std::vector<Tuple> tuples;
  std::vector<bayes::TanSample> samples;
  for (const synth::Clip& clip : dataset.train) {
    pipeline.set_background(clip.background);
    pose::PoseId prev = pose::kResetPose;
    GroundMonitor ground;
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      ++stats.frames;
      const FrameObservation obs = pipeline.process(clip.frames[i]);
      const bool airborne = ground.airborne(obs.bottom_row);
      const synth::FrameTruth& truth = clip.truth[i];
      const auto candidate =
          pose::features_from_truth(obs.graph, pipeline.encoder(), truth_points(truth));
      if (!candidate.has_value()) {
        ++stats.frames_without_skeleton;
        continue;
      }
      count_missing(*candidate, pipeline, stats);
      tuples.push_back({truth.pose, *candidate, prev, truth.stage, airborne});
      bayes::TanSample sample;
      sample.class_label = pose::index_of(truth.pose);
      sample.features.assign(candidate->features.areas.begin(),
                             candidate->features.areas.end());
      samples.push_back(std::move(sample));
      prev = truth.pose;
    }
  }
  const std::vector<int> feature_cards(static_cast<std::size_t>(pose::kPartCount),
                                       pipeline.encoder().state_count());
  classifier.set_tan_structure(bayes::learn_tan_structure(
      samples, feature_cards, pose::kPoseCount, classifier.config().laplace_alpha));
  for (const Tuple& t : tuples) {
    classifier.observe(t.pose, t.candidate, t.prev, t.stage, t.airborne);
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

/// Trains with the engine-backed trainer and with the oracle; both models
/// and stats must agree exactly.
void expect_matches_oracle(const synth::Dataset& dataset, bool learn_tan_structure) {
  TrainerOptions options;
  options.learn_tan_structure = learn_tan_structure;
  FramePipeline pipeline;
  pose::PoseDbnClassifier trained;
  const TrainingStats stats = train_on_dataset(trained, pipeline, dataset, options);

  FramePipeline oracle_pipeline;
  pose::PoseDbnClassifier oracle;
  const TrainingStats oracle_stats = learn_tan_structure
                                         ? oracle_train_tan(oracle, oracle_pipeline, dataset)
                                         : oracle_train(oracle, oracle_pipeline, dataset);

  expect_same_stats(stats, oracle_stats);
  EXPECT_EQ(stats.frames, dataset.train_frames());
  EXPECT_EQ(saved(trained), saved(oracle));
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
  expect_matches_oracle(dataset, /*learn_tan_structure=*/false);
}

TEST(Trainer, PaperSetTanMatchesSerialOracle) {
  const synth::Dataset dataset = paper_training_set();
  expect_matches_oracle(dataset, /*learn_tan_structure=*/true);
}

TEST(Trainer, TwoClipSetMatchesSerialOracle) {
  const synth::Dataset dataset = two_clip_set();
  expect_matches_oracle(dataset, /*learn_tan_structure=*/false);
  expect_matches_oracle(dataset, /*learn_tan_structure=*/true);
}

TEST(Trainer, LeavesTheCallersBackgroundUntouched) {
  const synth::Dataset dataset = two_clip_set();
  const synth::Clip probe = synth::generate_clip({});
  FramePipeline pipeline;
  pipeline.set_background(probe.background);
  const FrameObservation before = pipeline.process(probe.frames[10]);
  // Sanity: the last training clip's plate would segment the probe differently.
  FramePipeline overwritten;
  overwritten.set_background(dataset.train.back().background);
  ASSERT_NE(overwritten.process(probe.frames[10]).silhouette.data(), before.silhouette.data());

  pose::PoseDbnClassifier classifier;
  train_on_dataset(classifier, pipeline, dataset);
  const FrameObservation after = pipeline.process(probe.frames[10]);
  EXPECT_EQ(after.silhouette.data(), before.silhouette.data());
}

}  // namespace
}  // namespace slj::core
