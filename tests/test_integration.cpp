// End-to-end integration: generated corpus → training → classification.
// These are the slowest tests in the suite (a few seconds).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "core/analyzer.hpp"
#include "core/evaluation.hpp"
#include "core/stream_engine.hpp"
#include "core/trainer.hpp"
#include "reference.hpp"
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
  ClipEngine engine;
  const DatasetEvaluation eval = evaluate_dataset(classifier, engine, ds.test);
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
  ClipEngine engine;
  const double acc_dbn = evaluate_dataset(dbn, engine, ds.test).overall_accuracy();
  const double acc_static = evaluate_dataset(static_bn, engine, ds.test).overall_accuracy();
  EXPECT_GT(acc_dbn, acc_static);
}

void expect_same_results(const std::vector<pose::FrameResult>& got,
                         const std::vector<pose::FrameResult>& want, const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].pose, want[i].pose) << label << " frame " << i;
    EXPECT_EQ(got[i].best_pose, want[i].best_pose) << label << " frame " << i;
    EXPECT_EQ(got[i].stage, want[i].stage) << label << " frame " << i;
    EXPECT_EQ(got[i].candidate_index, want[i].candidate_index) << label << " frame " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].posterior),
              std::bit_cast<std::uint64_t>(want[i].posterior))
        << label << " frame " << i;
  }
}

TEST(Integration, EvaluationIsDeterministic) {
  // The same evaluation on one lane and on four: every frame's result, down
  // to the posterior's bits, and every tally agree.
  const synth::Dataset ds = synth::generate_dataset(small_spec());
  FramePipeline pipeline;
  pose::PoseDbnClassifier classifier;
  train_on_dataset(classifier, pipeline, ds);
  ClipEngineConfig one_lane;
  one_lane.workers = 1;
  ClipEngineConfig four_lanes;
  four_lanes.workers = 4;
  ClipEngine serial({}, one_lane);
  ClipEngine parallel({}, four_lanes);
  const DatasetEvaluation e1 = evaluate_dataset(classifier, serial, ds.test);
  const DatasetEvaluation e4 = evaluate_dataset(classifier, parallel, ds.test);
  ASSERT_EQ(e1.clips.size(), e4.clips.size());
  for (std::size_t c = 0; c < e1.clips.size(); ++c) {
    const std::string label = "clip " + std::to_string(c);
    expect_same_results(e4.clips[c].results, e1.clips[c].results, label);
    EXPECT_EQ(e4.clips[c].correct, e1.clips[c].correct) << label;
    EXPECT_EQ(e4.clips[c].unknown, e1.clips[c].unknown) << label;
    EXPECT_EQ(e4.clips[c].correct_stage, e1.clips[c].correct_stage) << label;
  }
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

TEST(Integration, EveryEntryPointRejectsMismatchedAreaConfig) {
  // A 12-area classifier reads an 8-area pipeline's "missing" state as
  // area IX, so each entry that pairs the two refuses the pairing before
  // any frame runs.
  pose::ClassifierConfig cc;
  cc.num_areas = 12;
  pose::PoseDbnClassifier classifier(cc);
  const PipelineParams pp;  // 8 areas
  FramePipeline pipeline(pp);
  EXPECT_THROW(train_on_dataset(classifier, pipeline, synth::Dataset{}), std::invalid_argument);
  ClipEngine engine(pp, {1});
  EXPECT_THROW(evaluate_dataset(classifier, engine, {}), std::invalid_argument);
  EXPECT_THROW(StreamManager(classifier, pp, {1}), std::invalid_argument);
  EXPECT_THROW(StreamSession(classifier, RgbImage(8, 8), pp), std::invalid_argument);

  // The matching pairing is accepted by each of them.
  PipelineParams twelve;
  twelve.num_areas = 12;
  FramePipeline twelve_pipeline(twelve);
  EXPECT_NO_THROW(train_on_dataset(classifier, twelve_pipeline, synth::Dataset{}));
  ClipEngine twelve_engine(twelve, {1});
  EXPECT_NO_THROW(evaluate_dataset(classifier, twelve_engine, {}));
  EXPECT_NO_THROW(StreamManager(classifier, twelve, {1}));
  EXPECT_NO_THROW(StreamSession(classifier, RgbImage(8, 8), twelve));
}

TEST(Integration, AnalyzerMatchesReferenceChain) {
  // analyze() is the engine pass, classify_sequence and detect_faults: the
  // same frames and report as the seed chain's serial loop, on a clean jump
  // and on one jump per movement fault.
  const synth::Dataset ds = synth::generate_dataset(small_spec());
  JumpAnalyzer analyzer({}, {});
  analyzer.train(ds);
  const pose::PoseDbnClassifier& classifier = analyzer.classifier();

  std::vector<synth::FaultFlags> cases(5);
  cases[1].no_arm_swing = true;
  cases[2].no_crouch = true;
  cases[3].stiff_landing = true;
  cases[4].no_forward_lean = true;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    synth::ClipSpec spec;
    spec.seed = 1000u + static_cast<std::uint32_t>(k);
    spec.frame_count = 45;
    spec.faults = cases[k];
    const synth::Clip clip = synth::generate_clip(spec);
    const std::string label = "case " + std::to_string(k);

    const ClipObservation ref = reference::process_clip(FramePipeline(), clip);
    const std::vector<pose::FrameResult> want =
        classifier.classify_sequence(ref.candidate_sets(), ref.airborne);
    const JumpReport want_report = detect_faults(want);

    const ClipAnalysis got = analyzer.analyze(clip);
    expect_same_results(got.frames, want, label);
    ASSERT_EQ(got.report.findings.size(), want_report.findings.size()) << label;
    for (std::size_t f = 0; f < want_report.findings.size(); ++f) {
      const FaultFinding& g = got.report.findings[f];
      const FaultFinding& w = want_report.findings[f];
      EXPECT_EQ(g.rule, w.rule) << label << " finding " << f;
      EXPECT_EQ(g.passed, w.passed) << label << " finding " << f;
      EXPECT_EQ(g.evidence_frames, w.evidence_frames) << label << " finding " << f;
    }
    EXPECT_EQ(got.report.to_string(), want_report.to_string()) << label;
  }
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
  ClipEngine engine;
  const DatasetEvaluation eval = evaluate_dataset(classifier, engine, ds.test);
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
  ClipEngine engine;
  std::vector<std::size_t> correct;
  for (const std::uint32_t seed : {2008u, 1u, 2u}) {
    synth::DatasetSpec spec;
    spec.seed = seed;
    const synth::Dataset ds = synth::generate_dataset(spec);
    FramePipeline pipeline;
    pose::PoseDbnClassifier classifier;
    train_on_dataset(classifier, pipeline, ds);
    const DatasetEvaluation eval = evaluate_dataset(classifier, engine, ds.test);
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
