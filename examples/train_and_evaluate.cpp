// Full training / evaluation run on the paper-sized corpus: 12 training
// clips (522 frames) and 3 test clips (135 frames), reporting per-clip
// accuracy the way the paper's Sec. 5 does, plus the most confused pose
// pairs.
#include <cstdio>
#include <vector>

#include "core/evaluation.hpp"
#include "core/trainer.hpp"
#include "synth/dataset.hpp"

int main() {
  using namespace slj;

  synth::DatasetSpec spec;  // defaults reproduce 522 / 135 frames
  std::printf("generating dataset (12 train clips, 3 test clips)...\n");
  const synth::Dataset dataset = synth::generate_dataset(spec);
  std::printf("  train frames: %zu   test frames: %zu\n", dataset.train_frames(),
              dataset.test_frames());

  core::FramePipeline pipeline;
  pose::PoseDbnClassifier classifier;
  std::printf("training...\n");
  const core::TrainingStats ts = core::train_on_dataset(classifier, pipeline, dataset);
  std::printf("  trained on %zu frames (%zu without skeleton, %zu missing part slots)\n",
              ts.frames, ts.frames_without_skeleton, ts.missing_part_slots);

  std::printf("evaluating...\n");
  core::ClipEngine engine(pipeline.params());
  const core::DatasetEvaluation eval = core::evaluate_dataset(classifier, engine, dataset.test);
  for (std::size_t i = 0; i < eval.clips.size(); ++i) {
    const core::ClipEvaluation& c = eval.clips[i];
    std::printf("  test clip %zu: %zu/%zu correct (%.1f%%), %zu unknown, stage acc %.1f%%\n",
                i + 1, c.correct, c.frames, 100.0 * c.accuracy(), c.unknown,
                100.0 * c.stage_accuracy());
  }
  std::printf("overall accuracy: %.1f%% (paper: 81%%..87%% per clip)\n",
              100.0 * eval.overall_accuracy());

  // Top confusions.
  const core::ConfusionMatrix cm = core::confusion_matrix(eval);
  struct Confusion {
    int truth, predicted;
    std::size_t count;
  };
  std::vector<Confusion> confusions;
  for (int t = 0; t < pose::kPoseCount; ++t) {
    for (int p = 0; p <= pose::kPoseCount; ++p) {
      if (t == p) continue;
      const std::size_t n = cm[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)];
      if (n > 0) confusions.push_back({t, p, n});
    }
  }
  std::sort(confusions.begin(), confusions.end(),
            [](const Confusion& a, const Confusion& b) { return a.count > b.count; });
  std::printf("\nmost frequent confusions:\n");
  for (std::size_t i = 0; i < confusions.size() && i < 6; ++i) {
    const auto& c = confusions[i];
    std::printf("  %zux  '%s' -> '%s'\n", c.count,
                std::string(pose::pose_name(pose::pose_from_index(c.truth))).c_str(),
                std::string(pose::pose_name(pose::pose_from_index(c.predicted))).c_str());
  }
  return 0;
}
