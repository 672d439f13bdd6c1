// JumpAnalyzer: the user-facing facade. Owns the pipeline and a trained
// classifier; turns a video clip into per-frame poses and a coaching
// report. This is the "system for analyzing poses in a standing long jump
// automatically" of the paper's abstract.
#pragma once

#include <vector>

#include "core/faults.hpp"
#include "core/pipeline.hpp"
#include "pose/classifier.hpp"
#include "synth/dataset.hpp"

namespace slj::core {

struct ClipAnalysis {
  std::vector<pose::FrameResult> frames;
  JumpReport report;
};

class JumpAnalyzer {
 public:
  JumpAnalyzer(PipelineParams pipeline_params, pose::ClassifierConfig classifier_config);

  FramePipeline& pipeline() { return pipeline_; }
  const FramePipeline& pipeline() const { return pipeline_; }
  pose::PoseDbnClassifier& classifier() { return classifier_; }
  const pose::PoseDbnClassifier& classifier() const { return classifier_; }

  /// Trains on a dataset's training split (full pipeline per frame).
  void train(const synth::Dataset& dataset);

  /// Analyzes a raw clip: background plate + frames.
  ClipAnalysis analyze(const RgbImage& background, const std::vector<RgbImage>& frames);

  /// Convenience overload for generated clips.
  ClipAnalysis analyze(const synth::Clip& clip);

 private:
  FramePipeline pipeline_;
  FrameWorkspace workspace_;  ///< analyze()'s full-frame scratch, kept across clips
  pose::PoseDbnClassifier classifier_;
};

}  // namespace slj::core
