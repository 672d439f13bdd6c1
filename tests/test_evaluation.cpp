#include "core/evaluation.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace slj::core {
namespace {

using pose::FrameResult;
using pose::PoseId;

ClipEvaluation make_clip_eval(const std::vector<PoseId>& truth,
                              const std::vector<PoseId>& predicted) {
  ClipEvaluation eval;
  eval.frames = truth.size();
  for (std::size_t i = 0; i < truth.size(); ++i) {
    FrameResult r;
    r.pose = predicted[i];
    eval.results.push_back(r);
    eval.truth.push_back(truth[i]);
    if (predicted[i] == truth[i]) ++eval.correct;
    if (predicted[i] == PoseId::kUnknown) ++eval.unknown;
  }
  return eval;
}

TEST(ClipEvaluation, AccuracyMath) {
  const auto eval = make_clip_eval(
      {PoseId::kStandHandsForward, PoseId::kStandHandsForward, PoseId::kCrouchHandsBackward,
       PoseId::kCrouchHandsBackward},
      {PoseId::kStandHandsForward, PoseId::kCrouchHandsBackward, PoseId::kCrouchHandsBackward,
       PoseId::kUnknown});
  EXPECT_DOUBLE_EQ(eval.accuracy(), 0.5);
  EXPECT_EQ(eval.unknown, 1u);
}

// A clip loaded with `truth 0` has no truth rows: scoring must refuse it
// rather than index past the truth.
TEST(ClipEvaluation, EvaluateClipRejectsClipWithoutTruthPerFrame) {
  synth::ClipSpec spec;
  spec.frame_count = 6;
  synth::Clip clip = synth::generate_clip(spec);
  ClipEngine engine(PipelineParams{}, ClipEngineConfig{2});
  const ClipObservation observation = engine.process(clip);
  const pose::PoseDbnClassifier classifier;
  EXPECT_EQ(evaluate_clip(classifier, observation, clip).frames, 6u);

  clip.truth.pop_back();
  EXPECT_THROW(evaluate_clip(classifier, observation, clip), std::invalid_argument);
  clip.truth.clear();
  try {
    evaluate_clip(classifier, observation, clip);
    ADD_FAILURE() << "a truthless clip was scored";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("truth"), std::string::npos) << e.what();
  }
}

// evaluate_dataset scores any list of clips, not only a loaded test split,
// so it names a rejected clip by its list position.
TEST(DatasetEvaluation, RejectedClipIsNamedByListPosition) {
  synth::ClipSpec spec;
  spec.frame_count = 4;
  std::vector<synth::Clip> clips = {synth::generate_clip(spec), synth::generate_clip(spec)};
  clips[1].truth.clear();
  ClipEngine engine(PipelineParams{}, ClipEngineConfig{2});
  const pose::PoseDbnClassifier classifier;
  try {
    evaluate_dataset(classifier, engine, clips);
    ADD_FAILURE() << "a truthless clip was scored";
  } catch (const ClipListError& e) {
    const std::string what = e.what();
    EXPECT_EQ(e.index, 1u);
    EXPECT_EQ(what.rfind("clip 1: ", 0), 0u) << what;
    EXPECT_NE(what.find("truth"), std::string::npos) << what;
    EXPECT_EQ(what.find("test_"), std::string::npos) << what;
  }
}

TEST(ClipEvaluation, EmptyClipHasZeroAccuracy) {
  ClipEvaluation eval;
  EXPECT_DOUBLE_EQ(eval.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(eval.stage_accuracy(), 0.0);
}

TEST(DatasetEvaluation, AggregatesOverClips) {
  DatasetEvaluation ds;
  ds.clips.push_back(make_clip_eval({PoseId::kStandHandsForward, PoseId::kStandHandsForward},
                                    {PoseId::kStandHandsForward, PoseId::kStandHandsForward}));
  ds.clips.push_back(make_clip_eval({PoseId::kStandHandsForward, PoseId::kStandHandsForward},
                                    {PoseId::kUnknown, PoseId::kStandHandsForward}));
  EXPECT_EQ(ds.total_frames(), 4u);
  EXPECT_EQ(ds.total_correct(), 3u);
  EXPECT_DOUBLE_EQ(ds.overall_accuracy(), 0.75);
  EXPECT_DOUBLE_EQ(ds.min_clip_accuracy(), 0.5);
  EXPECT_DOUBLE_EQ(ds.max_clip_accuracy(), 1.0);
}

TEST(ErrorRuns, FindsConsecutiveErrorBursts) {
  // errors at frames 1,2,3 and 5 → runs of 3 and 1.
  DatasetEvaluation ds;
  ds.clips.push_back(make_clip_eval(
      {PoseId::kStandHandsForward, PoseId::kStandHandsForward, PoseId::kStandHandsForward,
       PoseId::kStandHandsForward, PoseId::kStandHandsForward, PoseId::kStandHandsForward},
      {PoseId::kStandHandsForward, PoseId::kUnknown, PoseId::kUnknown,
       PoseId::kCrouchHandsForward, PoseId::kStandHandsForward, PoseId::kUnknown}));
  const std::vector<int> runs = error_run_lengths(ds);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], 3);
  EXPECT_EQ(runs[1], 1);
}

TEST(ErrorRuns, PerfectClipHasNoRuns) {
  DatasetEvaluation ds;
  ds.clips.push_back(make_clip_eval({PoseId::kStandHandsForward},
                                    {PoseId::kStandHandsForward}));
  EXPECT_TRUE(error_run_lengths(ds).empty());
}

TEST(ErrorRuns, RunsDoNotCrossClipBoundaries) {
  DatasetEvaluation ds;
  ds.clips.push_back(make_clip_eval({PoseId::kStandHandsForward},
                                    {PoseId::kUnknown}));
  ds.clips.push_back(make_clip_eval({PoseId::kStandHandsForward},
                                    {PoseId::kUnknown}));
  const std::vector<int> runs = error_run_lengths(ds);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0], 1);
  EXPECT_EQ(runs[1], 1);
}

TEST(ConfusionMatrix, CountsTruthPredictedPairs) {
  DatasetEvaluation ds;
  ds.clips.push_back(make_clip_eval(
      {PoseId::kStandHandsForward, PoseId::kStandHandsForward, PoseId::kCrouchHandsBackward},
      {PoseId::kStandHandsForward, PoseId::kUnknown, PoseId::kStandHandsForward}));
  const ConfusionMatrix m = confusion_matrix(ds);
  const auto idx = [](PoseId p) { return static_cast<std::size_t>(pose::index_of(p)); };
  EXPECT_EQ(m[idx(PoseId::kStandHandsForward)][idx(PoseId::kStandHandsForward)], 1u);
  EXPECT_EQ(m[idx(PoseId::kStandHandsForward)][pose::kPoseCount], 1u);  // Unknown column
  EXPECT_EQ(m[idx(PoseId::kCrouchHandsBackward)][idx(PoseId::kStandHandsForward)], 1u);
}

}  // namespace
}  // namespace slj::core
