// Training the pose DBN from clips (paper Sec. 4.1): every training frame
// runs through the full vision pipeline, the annotated head picks the
// candidate labelling whose Head node lies nearest it (the candidates are
// the ones testing enumerates; no part snaps on its own), and that feature
// vector plus the annotated pose/stage update the classifier's CPTs.
//
// train_on_clip, the twin of evaluate_clip, trains on one clip's ClipEngine
// output. It reads only the skeleton graphs and airborne flags and encodes
// with the classifier's encoder, so one vision pass trains any area count.
// train_on_dataset runs it over a dataset in clip order, one clip's
// observations held at a time, so the model is the same at any lane count.
#pragma once

#include "core/clip_engine.hpp"
#include "core/pipeline.hpp"
#include "pose/classifier.hpp"
#include "synth/dataset.hpp"

namespace slj::core {

struct TrainingStats {
  std::size_t frames = 0;
  std::size_t frames_without_skeleton = 0;  ///< skipped: pipeline found nothing
  std::size_t missing_part_slots = 0;       ///< parts coded "missing" while training

  TrainingStats& operator+=(const TrainingStats& other);
};

/// Trains on one clip already processed by a ClipEngine (any area count).
/// Each frame's transition is observed under the *previous* trained frame's
/// stage (kBeforeJumping at the clip's start), not its own. Throws
/// std::invalid_argument unless the clip carries one truth row per observed
/// frame (a clip saved with `truth 0` has none).
TrainingStats train_on_clip(pose::PoseDbnClassifier& classifier,
                            const ClipObservation& observation, const synth::Clip& clip);

/// Trains on a whole dataset's training split, train_on_clip per clip, on
/// the caller's engine. Throws std::invalid_argument if the engine and the
/// classifier disagree on the area count, or as train_on_clip does, naming
/// the clip's dataset directory ("train_03: ...").
TrainingStats train_on_dataset(pose::PoseDbnClassifier& classifier, ClipEngine& engine,
                               const synth::Dataset& dataset);

/// The same on a ClipEngine built from `pipeline`'s parameters, one lane
/// per hardware thread; the pipeline's background plate is left untouched.
TrainingStats train_on_dataset(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                               const synth::Dataset& dataset);

}  // namespace slj::core
