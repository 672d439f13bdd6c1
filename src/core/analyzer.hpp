// JumpAnalyzer: the user-facing facade. Owns a ClipEngine and a trained
// classifier; turns a video clip into per-frame poses and a coaching
// report. This is the "system for analyzing poses in a standing long jump
// automatically" of the paper's abstract.
#pragma once

#include <memory>
#include <vector>

#include "core/clip_engine.hpp"
#include "core/faults.hpp"
#include "pose/classifier.hpp"
#include "synth/dataset.hpp"

namespace slj::core {

struct ClipAnalysis {
  std::vector<pose::FrameResult> frames;
  JumpReport report;
};

class JumpAnalyzer {
 public:
  /// The engine runs one lane per hardware thread. Throws
  /// std::invalid_argument if the two disagree on the area count.
  JumpAnalyzer(PipelineParams pipeline_params, pose::ClassifierConfig classifier_config);

  pose::PoseDbnClassifier& classifier() { return classifier_; }
  const pose::PoseDbnClassifier& classifier() const { return classifier_; }

  /// Trains on a dataset's training split (full pipeline per frame).
  void train(const synth::Dataset& dataset);

  /// Analyzes a raw clip: background plate + frames. The vision pass runs
  /// on the engine, then the classifier replays the clip in frame order.
  ClipAnalysis analyze(const RgbImage& background, const std::vector<RgbImage>& frames);

  /// Convenience overload for generated clips.
  ClipAnalysis analyze(const synth::Clip& clip);

 private:
  /// Held by pointer so the analyzer stays movable: the engine's worker
  /// threads refer to it.
  std::unique_ptr<ClipEngine> engine_;
  pose::PoseDbnClassifier classifier_;
};

}  // namespace slj::core
