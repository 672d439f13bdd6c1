#include "core/analyzer.hpp"

#include <stdexcept>

#include "core/trainer.hpp"

namespace slj::core {

JumpAnalyzer::JumpAnalyzer(PipelineParams pipeline_params,
                           pose::ClassifierConfig classifier_config)
    : pipeline_(pipeline_params), classifier_(classifier_config) {
  if (pipeline_params.num_areas != classifier_config.num_areas) {
    throw std::invalid_argument("pipeline and classifier must agree on the area count");
  }
}

void JumpAnalyzer::train(const synth::Dataset& dataset) {
  train_on_dataset(classifier_, pipeline_, dataset);
}

ClipAnalysis JumpAnalyzer::analyze(const RgbImage& background,
                                   const std::vector<RgbImage>& frames) {
  pipeline_.set_background(background);
  ClipAnalysis analysis;
  pose::PoseDbnClassifier::SequenceState state = classifier_.initial_state();
  GroundMonitor ground;
  FrameObservation obs;  // reused frame over frame
  for (const RgbImage& frame : frames) {
    pipeline_.process_into(frame, workspace_, obs);
    const bool airborne = ground.airborne(obs.bottom_row);
    analysis.frames.push_back(classifier_.classify(obs.candidates, airborne, state));
  }
  analysis.report = detect_faults(analysis.frames);
  return analysis;
}

ClipAnalysis JumpAnalyzer::analyze(const synth::Clip& clip) {
  return analyze(clip.background, clip.frames);
}

}  // namespace slj::core
