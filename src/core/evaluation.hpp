// Evaluation utilities: per-clip accuracy (the paper's Sec. 5 metric),
// confusion statistics, and error-run analysis ("most errors in our
// experiments occurred in consecutive frames"). A clip's vision pass always
// runs on a ClipEngine; scoring replays its observations in frame order, so
// one pass's observations can be scored by any number of classifiers.
#pragma once

#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/clip_engine.hpp"
#include "pose/classifier.hpp"
#include "synth/dataset.hpp"

namespace slj::core {

struct ClipEvaluation {
  std::size_t frames = 0;
  std::size_t correct = 0;
  std::size_t unknown = 0;             ///< frames classified Unknown
  std::size_t correct_stage = 0;       ///< stage-level agreement
  std::vector<pose::FrameResult> results;
  std::vector<pose::PoseId> truth;

  double accuracy() const {
    return frames == 0 ? 0.0 : static_cast<double>(correct) / static_cast<double>(frames);
  }
  double stage_accuracy() const {
    return frames == 0 ? 0.0
                       : static_cast<double>(correct_stage) / static_cast<double>(frames);
  }
};

/// Runs the classifier over one already-processed clip (ClipEngine output
/// at the classifier's area count) and scores it against ground truth; the
/// twin of train_on_clip. An Unknown prediction counts as incorrect (the
/// paper's accuracy treats only exact pose matches as correct). Throws
/// std::invalid_argument unless the clip carries one truth row per observed
/// frame (a clip saved with `truth 0` has none).
ClipEvaluation evaluate_clip(const pose::PoseDbnClassifier& classifier,
                             const ClipObservation& observation, const synth::Clip& clip);

struct DatasetEvaluation {
  std::vector<ClipEvaluation> clips;

  std::size_t total_frames() const;
  std::size_t total_correct() const;
  double overall_accuracy() const;
  double min_clip_accuracy() const;
  double max_clip_accuracy() const;
};

/// What evaluate_dataset throws for a clip of its list that evaluate_clip
/// rejects: that message prefixed with the clip's list position
/// ("clip 1: ..."). A caller that knows the clip by another name, such as
/// its directory, reads the position from `index`.
struct ClipListError : std::invalid_argument {
  ClipListError(std::size_t clip_index, const std::string& reason)
      : std::invalid_argument("clip " + std::to_string(clip_index) + ": " + reason),
        index(clip_index) {}

  std::size_t index;
};

/// Each clip's vision pass runs on the engine's worker pool (one clip in
/// memory at a time); classification then replays in frame order, so the
/// result is the same at any lane count. Throws std::invalid_argument if
/// the engine's pipeline and the classifier disagree on the area count, and
/// ClipListError for a clip evaluate_clip rejects.
DatasetEvaluation evaluate_dataset(const pose::PoseDbnClassifier& classifier, ClipEngine& engine,
                                   const std::vector<synth::Clip>& clips);

/// Lengths of maximal runs of consecutive misclassified frames, pooled over
/// clips (A6 bench: the paper's "errors occur in consecutive frames").
std::vector<int> error_run_lengths(const DatasetEvaluation& eval);

/// 22×22 confusion matrix (+1 column for Unknown) indexed
/// [truth][predicted]; predicted Unknown uses column kPoseCount.
using ConfusionMatrix = std::array<std::array<std::size_t, pose::kPoseCount + 1>, pose::kPoseCount>;
ConfusionMatrix confusion_matrix(const DatasetEvaluation& eval);

}  // namespace slj::core
