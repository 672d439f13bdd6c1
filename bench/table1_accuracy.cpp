// T1 — the paper's headline result (Sec. 5, reported in text):
//   "Twelve video clips are used as the training set and three others are
//    used as the test set ... 522 frames in the training set and 135 frames
//    in the test set ... The overall accuracy is from 81% to 87% for the
//    three test video clips."
// This bench regenerates that table on the synthetic corpus: per-clip pose
// accuracy of the full pipeline + DBN.
#include "bench_common.hpp"

int main() {
  using namespace slj;
  bench::print_header("T1  per-clip pose estimation accuracy",
                      "Sec. 5 text table: 81%..87% per test clip, 522/135 train/test frames");

  const synth::Dataset dataset = bench::paper_corpus();
  std::printf("training frames: %zu (paper: 522)\n", dataset.train_frames());
  std::printf("test frames:     %zu (paper: 135)\n", dataset.test_frames());

  bench::TrainedSystem sys = bench::train_system(dataset);
  std::printf("frames without usable skeleton during training: %zu\n\n",
              sys.stats.frames_without_skeleton);

  core::ClipEngine engine(sys.pipeline.params());
  const core::DatasetEvaluation eval =
      core::evaluate_dataset(sys.classifier, engine, dataset.test);

  bench::print_rule();
  std::printf("%-12s %-10s %-10s %-10s %-12s %-12s\n", "test clip", "frames", "correct",
              "unknown", "pose acc", "stage acc");
  bench::print_rule();
  for (std::size_t i = 0; i < eval.clips.size(); ++i) {
    const core::ClipEvaluation& c = eval.clips[i];
    std::printf("%-12zu %-10zu %-10zu %-10zu %-12.1f %-12.1f\n", i + 1, c.frames, c.correct,
                c.unknown, 100.0 * c.accuracy(), 100.0 * c.stage_accuracy());
  }
  bench::print_rule();
  std::printf("overall pose accuracy: %.1f%%  (clip range %.1f%%..%.1f%%)\n",
              100.0 * eval.overall_accuracy(), 100.0 * eval.min_clip_accuracy(),
              100.0 * eval.max_clip_accuracy());
  std::printf("paper:                 81%%..87%% per clip\n");
  return 0;
}
