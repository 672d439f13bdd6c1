// Evaluation utilities: per-clip accuracy (the paper's Sec. 5 metric),
// confusion statistics, and error-run analysis ("most errors in our
// experiments occurred in consecutive frames"). A clip's vision pass always
// runs on a ClipEngine; scoring replays its observations in frame order.
#pragma once

#include <array>
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

/// Runs the classifier over one already-processed clip (ClipEngine output)
/// and scores it against ground truth. An Unknown prediction counts as
/// incorrect (the paper's accuracy treats only exact pose matches as
/// correct).
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

/// Each clip's vision pass runs on the engine's worker pool (one clip in
/// memory at a time); classification then replays in frame order, so the
/// result is the same at any lane count. Throws std::invalid_argument if
/// the engine's pipeline and the classifier disagree on the area count.
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
