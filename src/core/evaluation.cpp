#include "core/evaluation.hpp"

#include <algorithm>

namespace slj::core {

namespace {

/// Classifies one already-processed frame and folds it into the tally.
void score_frame(ClipEvaluation& eval, const pose::PoseDbnClassifier& classifier,
                 const FrameObservation& obs, bool airborne, pose::PoseId truth_pose,
                 pose::Stage truth_stage, pose::PoseDbnClassifier::SequenceState& state) {
  const pose::FrameResult res = classifier.classify(obs.candidates, airborne, state);
  ++eval.frames;
  if (res.pose == truth_pose) ++eval.correct;
  if (res.pose == pose::PoseId::kUnknown) ++eval.unknown;
  if (res.pose != pose::PoseId::kUnknown && pose::stage_of(res.pose) == truth_stage) {
    ++eval.correct_stage;
  }
  eval.results.push_back(res);
  eval.truth.push_back(truth_pose);
}

}  // namespace

ClipEvaluation evaluate_clip(const pose::PoseDbnClassifier& classifier,
                             const ClipObservation& observation, const synth::Clip& clip) {
  ClipEvaluation eval;
  pose::PoseDbnClassifier::SequenceState state = classifier.initial_state();
  for (std::size_t i = 0; i < observation.frames.size(); ++i) {
    score_frame(eval, classifier, observation.frames[i], observation.airborne[i],
                clip.truth[i].pose, clip.truth[i].stage, state);
  }
  return eval;
}

std::size_t DatasetEvaluation::total_frames() const {
  std::size_t n = 0;
  for (const ClipEvaluation& c : clips) n += c.frames;
  return n;
}

std::size_t DatasetEvaluation::total_correct() const {
  std::size_t n = 0;
  for (const ClipEvaluation& c : clips) n += c.correct;
  return n;
}

double DatasetEvaluation::overall_accuracy() const {
  const std::size_t frames = total_frames();
  return frames == 0 ? 0.0
                     : static_cast<double>(total_correct()) / static_cast<double>(frames);
}

double DatasetEvaluation::min_clip_accuracy() const {
  double best = 1.0;
  for (const ClipEvaluation& c : clips) best = std::min(best, c.accuracy());
  return clips.empty() ? 0.0 : best;
}

double DatasetEvaluation::max_clip_accuracy() const {
  double best = 0.0;
  for (const ClipEvaluation& c : clips) best = std::max(best, c.accuracy());
  return best;
}

DatasetEvaluation evaluate_dataset(const pose::PoseDbnClassifier& classifier, ClipEngine& engine,
                                   const std::vector<synth::Clip>& clips) {
  require_same_area_count(engine.pipeline_params(), classifier.config());
  DatasetEvaluation eval;
  eval.clips.reserve(clips.size());
  // Clip by clip (frames of each clip still run on the pool): the full
  // FrameObservations of one clip are dropped before the next is processed,
  // so peak memory is one clip's worth rather than the whole dataset's.
  for (std::size_t c = 0; c < clips.size(); ++c) {
    const ClipObservation observation = engine.process(clips[c]);
    eval.clips.push_back(evaluate_clip(classifier, observation, clips[c]));
  }
  return eval;
}

std::vector<int> error_run_lengths(const DatasetEvaluation& eval) {
  std::vector<int> runs;
  for (const ClipEvaluation& clip : eval.clips) {
    int run = 0;
    for (std::size_t i = 0; i < clip.results.size(); ++i) {
      const bool wrong = clip.results[i].pose != clip.truth[i];
      if (wrong) {
        ++run;
      } else if (run > 0) {
        runs.push_back(run);
        run = 0;
      }
    }
    if (run > 0) runs.push_back(run);
  }
  return runs;
}

ConfusionMatrix confusion_matrix(const DatasetEvaluation& eval) {
  ConfusionMatrix m{};
  for (const ClipEvaluation& clip : eval.clips) {
    for (std::size_t i = 0; i < clip.results.size(); ++i) {
      const int t = pose::index_of(clip.truth[i]);
      const int p = pose::index_of(clip.results[i].pose);  // kUnknown -> kPoseCount
      m[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)] += 1;
    }
  }
  return m;
}

}  // namespace slj::core
