#include "core/trainer.hpp"

#include <utility>
#include <vector>

#include "bayes/structure.hpp"
#include "core/clip_engine.hpp"

namespace slj::core {

namespace {

/// One training frame with a skeleton, as the counting pass sees it.
struct TrainingFrame {
  pose::PoseId pose;
  pose::FeatureCandidate candidate;
  pose::PoseId prev;        ///< previous trained frame's pose (kResetPose at clip start)
  pose::Stage stage;        ///< this frame's stage
  pose::Stage prev_stage;   ///< previous trained frame's stage (kBeforeJumping at clip start)
  bool airborne;
};

/// Runs every training clip through one ClipEngine, snaps truth to the key
/// points, and hands each frame with a skeleton to `sink` in clip/frame
/// order. Frames without a skeleton are counted and skipped; they do not
/// advance `prev`/`prev_stage`.
template <class Sink>
TrainingStats for_each_training_frame(const FramePipeline& pipeline,
                                      const synth::Dataset& dataset, Sink&& sink) {
  ClipEngine engine(pipeline.params());
  const pose::AreaEncoder& encoder = pipeline.encoder();
  TrainingStats stats;
  for (const synth::Clip& clip : dataset.train) {
    const ClipObservation observation = engine.process(clip);
    pose::PoseId prev = pose::kResetPose;
    pose::Stage prev_stage = pose::Stage::kBeforeJumping;
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      ++stats.frames;
      const synth::FrameTruth& truth = clip.truth[i];
      const pose::PartPoints gt{truth.parts.head, truth.parts.chest, truth.parts.hand,
                                truth.parts.knee, truth.parts.foot};
      auto candidate = pose::features_from_truth(observation.frames[i].graph, encoder, gt);
      if (!candidate.has_value()) {
        ++stats.frames_without_skeleton;
        continue;
      }
      for (const int area : candidate->features.areas) {
        if (area == encoder.missing_state()) ++stats.missing_part_slots;
      }
      sink(TrainingFrame{truth.pose, std::move(*candidate), prev, truth.stage, prev_stage,
                         observation.airborne[i]});
      prev = truth.pose;
      prev_stage = truth.stage;
    }
  }
  return stats;
}

}  // namespace

TrainingStats train_on_dataset(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                               const synth::Dataset& dataset) {
  return for_each_training_frame(pipeline, dataset, [&](TrainingFrame&& f) {
    // The lagged stage is this path's documented behaviour (trainer.hpp);
    // switching to f.stage changes the trained model.
    classifier.observe(f.pose, f.candidate, f.prev, f.prev_stage, f.airborne);
  });
}

TrainingStats train_on_dataset(pose::PoseDbnClassifier& classifier, FramePipeline& pipeline,
                               const synth::Dataset& dataset, const TrainerOptions& options) {
  if (!options.learn_tan_structure) {
    return train_on_dataset(classifier, pipeline, dataset);
  }

  // Pass 1: the vision pass, caching the training frames.
  std::vector<TrainingFrame> frames;
  std::vector<bayes::TanSample> samples;
  const TrainingStats stats = for_each_training_frame(pipeline, dataset, [&](TrainingFrame&& f) {
    bayes::TanSample sample;
    sample.class_label = pose::index_of(f.pose);
    sample.features.assign(f.candidate.features.areas.begin(), f.candidate.features.areas.end());
    samples.push_back(std::move(sample));
    frames.push_back(std::move(f));
  });

  // Qualitative training: the TAN tree over the part features.
  const std::vector<int> feature_cards(static_cast<std::size_t>(pose::kPartCount),
                                       pipeline.encoder().state_count());
  const std::vector<int> parents = bayes::learn_tan_structure(
      samples, feature_cards, pose::kPoseCount, classifier.config().laplace_alpha);
  classifier.set_tan_structure(parents);

  // Pass 2: quantitative training from the cached frames.
  for (const TrainingFrame& f : frames) {
    classifier.observe(f.pose, f.candidate, f.prev, f.stage, f.airborne);
  }
  return stats;
}

}  // namespace slj::core
