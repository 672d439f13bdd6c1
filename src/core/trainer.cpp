#include "core/trainer.hpp"

#include <stdexcept>
#include <string>

namespace slj::core {

TrainingStats& TrainingStats::operator+=(const TrainingStats& other) {
  frames += other.frames;
  frames_without_skeleton += other.frames_without_skeleton;
  missing_part_slots += other.missing_part_slots;
  return *this;
}

TrainingStats train_on_clip(pose::PoseDbnClassifier& classifier,
                            const ClipObservation& observation, const synth::Clip& clip) {
  if (clip.truth.size() != observation.frames.size()) {
    throw std::invalid_argument("training needs ground truth for every frame: the clip has " +
                                std::to_string(clip.truth.size()) + " truth rows for " +
                                std::to_string(observation.frames.size()) + " frames");
  }
  const pose::AreaEncoder& encoder = classifier.encoder();
  TrainingStats stats;
  // Frames without a skeleton are counted and skipped; they do not
  // advance prev/prev_stage.
  pose::PoseId prev = pose::kResetPose;
  pose::Stage prev_stage = pose::Stage::kBeforeJumping;
  for (std::size_t i = 0; i < observation.frames.size(); ++i) {
    ++stats.frames;
    const synth::FrameTruth& truth = clip.truth[i];
    const pose::PartPoints gt{truth.parts.head, truth.parts.chest, truth.parts.hand,
                              truth.parts.knee, truth.parts.foot};
    const auto candidate = pose::features_from_truth(observation.frames[i].graph, encoder, gt);
    if (!candidate.has_value()) {
      ++stats.frames_without_skeleton;
      continue;
    }
    for (const int area : candidate->features.areas) {
      if (area == encoder.missing_state()) ++stats.missing_part_slots;
    }
    // The lagged stage is this trainer's documented behaviour
    // (trainer.hpp); switching to truth.stage changes the trained model.
    classifier.observe(truth.pose, *candidate, prev, prev_stage, observation.airborne[i]);
    prev = truth.pose;
    prev_stage = truth.stage;
  }
  return stats;
}

TrainingStats train_on_dataset(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                               const synth::Dataset& dataset) {
  ClipEngine engine(pipeline.params());
  return train_on_dataset(classifier, engine, dataset);
}

TrainingStats train_on_dataset(pose::PoseDbnClassifier& classifier, ClipEngine& engine,
                               const synth::Dataset& dataset) {
  require_same_area_count(engine.pipeline_params(), classifier.config());
  TrainingStats stats;
  for (const synth::Clip& clip : dataset.train) {
    stats += train_on_clip(classifier, engine.process(clip), clip);
  }
  return stats;
}

}  // namespace slj::core
