#include "core/analyzer.hpp"

#include "core/trainer.hpp"

namespace slj::core {

JumpAnalyzer::JumpAnalyzer(PipelineParams pipeline_params,
                           pose::ClassifierConfig classifier_config)
    : engine_(std::make_unique<ClipEngine>(pipeline_params)), classifier_(classifier_config) {
  require_same_area_count(pipeline_params, classifier_config);
}

void JumpAnalyzer::train(const synth::Dataset& dataset) {
  train_on_dataset(classifier_, *engine_, dataset);
}

ClipAnalysis JumpAnalyzer::analyze(const RgbImage& background,
                                   const std::vector<RgbImage>& frames) {
  const ClipObservation observation = engine_->process(background, frames);
  ClipAnalysis analysis;
  analysis.frames =
      classifier_.classify_sequence(observation.candidate_sets(), observation.airborne);
  analysis.report = detect_faults(analysis.frames);
  return analysis;
}

ClipAnalysis JumpAnalyzer::analyze(const synth::Clip& clip) {
  return analyze(clip.background, clip.frames);
}

}  // namespace slj::core
