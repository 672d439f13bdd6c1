// A4 — training-set size: the paper attributes part of its error to the
// small corpus ("the number of training samples is small. The probabilities
// of these poses are not large enough to be accepted."). Reproduced as an
// accuracy curve over the number of training clips, with the test clips
// held fixed.
#include <map>

#include "bench_common.hpp"

int main() {
  using namespace slj;
  bench::print_header("A4  training-set size sweep",
                      "Sec. 5: accuracy limited by the small number of training samples");

  bench::print_rule();
  std::printf("%-14s %-14s %-10s %-22s\n", "train clips", "train frames", "overall",
              "per clip");
  bench::print_rule();
  std::map<int, core::DatasetEvaluation> evals;
  for (const int clips : {2, 4, 6, 8, 10, 12}) {
    synth::DatasetSpec spec;  // same seed → same clips, test set identical
    spec.train_clip_frames.resize(static_cast<std::size_t>(clips));
    const synth::Dataset dataset = synth::generate_dataset(spec);
    bench::TrainedSystem sys = bench::train_system(dataset);
    core::ClipEngine engine(sys.pipeline.params());
    const core::DatasetEvaluation eval =
        core::evaluate_dataset(sys.classifier, engine, dataset.test);
    std::printf("%-14d %-14zu %-10.1f %4.0f%% / %4.0f%% / %4.0f%%\n", clips,
                dataset.train_frames(), 100.0 * eval.overall_accuracy(),
                100.0 * eval.clips[0].accuracy(), 100.0 * eval.clips[1].accuracy(),
                100.0 * eval.clips[2].accuracy());
    evals[clips] = eval;
  }
  bench::print_rule();
  int growth = 0, late = 0;
  std::printf("verdict (one test frame = %.2f pt):\n", 100.0 / evals[12].total_frames());
  std::printf("  12 vs 2 clips: %s\n", bench::accuracy_delta(evals[12], evals[2], growth).c_str());
  std::printf("  12 vs 8 clips: %s\n", bench::accuracy_delta(evals[12], evals[8], late).c_str());
  std::printf("accuracy %s with training clips %s\n", growth > 0 ? "grows" : "does not grow",
              late > 0    ? "and is not yet saturated at 12 — matching the paper's call for "
                            "more training data"
              : late == 0 ? "and is flat from 8 to 12 clips at this resolution"
                          : "but falls from 8 to 12 clips");
  return 0;
}
