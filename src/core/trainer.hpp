// Training the pose DBN from clips (paper Sec. 4.1): every training frame
// runs through the full vision pipeline, the ground-truth part locations
// snap to the extracted key points, and the resulting feature vector plus
// the annotated pose/stage update the classifier's CPTs.
//
// The vision pass runs on a ClipEngine built from the caller's pipeline
// parameters, with one lane per hardware thread: frames of a clip run in
// parallel on per-lane workspaces, one clip's observations are held at a
// time, and the GroundMonitor replays in frame order. The engine output is
// bit-identical to a serial process_into loop, and the classifier observes
// frames in clip/frame order, so the trained model is the same at any lane
// count. The caller's pipeline supplies parameters and the area encoder
// only; its background plate is left untouched.
#pragma once

#include "core/pipeline.hpp"
#include "pose/classifier.hpp"
#include "synth/dataset.hpp"

namespace slj::core {

struct TrainingStats {
  std::size_t frames = 0;
  std::size_t frames_without_skeleton = 0;  ///< skipped: pipeline found nothing
  std::size_t missing_part_slots = 0;       ///< parts coded "missing" while training
};

/// Trains on a whole dataset's training split. Each frame's transition is
/// observed under the *previous* trained frame's stage (kBeforeJumping at a
/// clip's start), not its own.
TrainingStats train_on_dataset(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                               const synth::Dataset& dataset);

}  // namespace slj::core
