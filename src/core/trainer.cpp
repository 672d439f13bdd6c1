#include "core/trainer.hpp"

#include "core/clip_engine.hpp"

namespace slj::core {

TrainingStats train_on_dataset(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                               const synth::Dataset& dataset) {
  ClipEngine engine(pipeline.params());
  const pose::AreaEncoder& encoder = pipeline.encoder();
  TrainingStats stats;
  for (const synth::Clip& clip : dataset.train) {
    const ClipObservation observation = engine.process(clip);
    // Frames without a skeleton are counted and skipped; they do not
    // advance prev/prev_stage.
    pose::PoseId prev = pose::kResetPose;
    pose::Stage prev_stage = pose::Stage::kBeforeJumping;
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
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
  }
  return stats;
}

}  // namespace slj::core
