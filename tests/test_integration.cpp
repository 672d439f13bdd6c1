// End-to-end integration: generated corpus → training → classification.
// These are the slowest tests in the suite (a few seconds).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/analyzer.hpp"
#include "core/evaluation.hpp"
#include "core/trainer.hpp"
#include "synth/dataset.hpp"

namespace slj::core {
namespace {

synth::DatasetSpec small_spec(std::uint32_t seed = 2008) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.train_clip_frames = {44, 43, 44, 43, 44, 43};
  spec.test_clip_frames = {45};
  return spec;
}

TEST(Integration, TrainingConsumesAllFrames) {
  const synth::Dataset ds = synth::generate_dataset(small_spec());
  FramePipeline pipeline;
  pose::PoseDbnClassifier classifier;
  const TrainingStats stats = train_on_dataset(classifier, pipeline, ds);
  EXPECT_EQ(stats.frames, ds.train_frames());
  EXPECT_EQ(stats.frames_without_skeleton, 0u);
  EXPECT_DOUBLE_EQ(classifier.training_frames(),
                   static_cast<double>(ds.train_frames()));
}

TEST(Integration, AccuracyWellAboveChance) {
  const synth::Dataset ds = synth::generate_dataset(small_spec());
  FramePipeline pipeline;
  pose::PoseDbnClassifier classifier;
  train_on_dataset(classifier, pipeline, ds);
  const DatasetEvaluation eval = evaluate_dataset(classifier, pipeline, ds.test);
  // Chance over 22 poses is ~4.5%; the trained pipeline should clear 50%
  // even on this reduced corpus.
  EXPECT_GT(eval.overall_accuracy(), 0.5);
  // Stage-level agreement is much stronger still.
  EXPECT_GT(eval.clips.front().stage_accuracy(), 0.75);
}

TEST(Integration, DbnBeatsStaticBn) {
  const synth::Dataset ds = synth::generate_dataset(small_spec());
  FramePipeline p1, p2;
  pose::ClassifierConfig dbn_cfg;
  pose::ClassifierConfig static_cfg;
  static_cfg.temporal = pose::TemporalMode::kStaticBn;
  pose::PoseDbnClassifier dbn(dbn_cfg);
  pose::PoseDbnClassifier static_bn(static_cfg);
  train_on_dataset(dbn, p1, ds);
  train_on_dataset(static_bn, p2, ds);
  const double acc_dbn = evaluate_dataset(dbn, p1, ds.test).overall_accuracy();
  const double acc_static = evaluate_dataset(static_bn, p2, ds.test).overall_accuracy();
  EXPECT_GT(acc_dbn, acc_static);
}

TEST(Integration, EvaluationIsDeterministic) {
  const synth::Dataset ds = synth::generate_dataset(small_spec());
  FramePipeline pipeline;
  pose::PoseDbnClassifier classifier;
  train_on_dataset(classifier, pipeline, ds);
  const DatasetEvaluation e1 = evaluate_dataset(classifier, pipeline, ds.test);
  const DatasetEvaluation e2 = evaluate_dataset(classifier, pipeline, ds.test);
  EXPECT_EQ(e1.total_correct(), e2.total_correct());
}

TEST(Integration, AnalyzerProducesFrameResultsAndReport) {
  const synth::Dataset ds = synth::generate_dataset(small_spec());
  JumpAnalyzer analyzer({}, {});
  analyzer.train(ds);
  const ClipAnalysis analysis = analyzer.analyze(ds.test.front());
  EXPECT_EQ(analysis.frames.size(), ds.test.front().frames.size());
  EXPECT_EQ(analysis.report.total_count(), 6);
  // A well-executed jump passes most of the standard's checks.
  EXPECT_GE(analysis.report.passed_count(), 4);
}

TEST(Integration, AnalyzerRejectsMismatchedAreaConfig) {
  PipelineParams pp;
  pp.num_areas = 8;
  pose::ClassifierConfig cc;
  cc.num_areas = 12;
  EXPECT_THROW(JumpAnalyzer(pp, cc), std::invalid_argument);
}

TEST(Integration, FaultyJumpFailsTheMatchingCheck) {
  const synth::Dataset ds = synth::generate_dataset(small_spec());
  JumpAnalyzer analyzer({}, {});
  analyzer.train(ds);

  synth::ClipSpec faulty;
  faulty.seed = 321;
  faulty.frame_count = 45;
  faulty.faults.no_arm_swing = true;
  const synth::Clip clip = synth::generate_clip(faulty);
  const ClipAnalysis analysis = analyzer.analyze(clip);
  // A jump without any arm swing must fail at least one check (the exact
  // check can vary with classification noise, but a clean bill of health
  // would be wrong).
  EXPECT_FALSE(analysis.report.all_passed());
}

TEST(Integration, ErrorsClusterInConsecutiveFrames) {
  // The paper's observation: "Most errors in our experiments occurred in
  // consecutive frames." At least some multi-frame error runs exist.
  const synth::Dataset ds = synth::generate_dataset(small_spec());
  FramePipeline pipeline;
  pose::PoseDbnClassifier classifier;
  train_on_dataset(classifier, pipeline, ds);
  const DatasetEvaluation eval = evaluate_dataset(classifier, pipeline, ds.test);
  const std::vector<int> runs = error_run_lengths(eval);
  if (!runs.empty()) {
    int multi = 0;
    for (const int r : runs) multi += r >= 2 ? 1 : 0;
    EXPECT_GT(multi, 0);
  }
}

TEST(Integration, PaperCorpusMedianAccuracyHoldsItsFloor) {
  // The T1 reproduction at full paper size (522 training / 135 test frames)
  // over three corpus seeds. One seed is one draw from a spread of about ten
  // points, so the floor binds the median: 99/135 when pinned (seeds 2008,
  // 1, 2 scored 103, 99 and 90 frames), with two test frames of slack.
  constexpr std::size_t kMedianFloor = 97;
  std::vector<std::size_t> correct;
  for (const std::uint32_t seed : {2008u, 1u, 2u}) {
    synth::DatasetSpec spec;
    spec.seed = seed;
    const synth::Dataset ds = synth::generate_dataset(spec);
    FramePipeline pipeline;
    pose::PoseDbnClassifier classifier;
    train_on_dataset(classifier, pipeline, ds);
    const DatasetEvaluation eval = evaluate_dataset(classifier, pipeline, ds.test);
    ASSERT_EQ(eval.total_frames(), 135u);
    correct.push_back(eval.total_correct());
  }
  const std::vector<std::size_t> per_seed = correct;
  std::sort(correct.begin(), correct.end());
  EXPECT_GE(correct[1], kMedianFloor)
      << "median correct test frames over seeds 2008, 1, 2 (per seed: " << per_seed[0] << ", "
      << per_seed[1] << ", " << per_seed[2] << " of 135)";
}

}  // namespace
}  // namespace slj::core
