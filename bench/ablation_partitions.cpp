// A3 — partition count: the paper's future work — "more partitions instead
// of just eight as shown in Figure 6 can be used for feature encoding. More
// information would further improve the classification results."
#include <map>

#include "bench_common.hpp"

int main() {
  using namespace slj;
  bench::print_header("A3  area partition sweep",
                      "Sec. 6: more partitions than eight should further improve results");

  const synth::Dataset dataset = bench::paper_corpus();

  bench::print_rule();
  std::printf("%-10s %-10s %-22s\n", "areas", "overall", "per clip");
  bench::print_rule();
  std::map<int, core::DatasetEvaluation> evals;
  for (const int areas : {4, 8, 12, 16}) {
    pose::ClassifierConfig cfg;
    cfg.num_areas = areas;
    core::PipelineParams params;
    params.num_areas = areas;
    bench::TrainedSystem sys = bench::train_system(dataset, cfg, params);
    core::ClipEngine engine(sys.pipeline.params());
    const core::DatasetEvaluation eval =
        core::evaluate_dataset(sys.classifier, engine, dataset.test);
    std::printf("%-10d %-10.1f %4.0f%% / %4.0f%% / %4.0f%%\n", areas,
                100.0 * eval.overall_accuracy(), 100.0 * eval.clips[0].accuracy(),
                100.0 * eval.clips[1].accuracy(), 100.0 * eval.clips[2].accuracy());
    evals[areas] = eval;
  }
  bench::print_rule();
  std::printf("verdict vs 8 areas (one test frame = %.2f pt):\n",
              100.0 / evals[8].total_frames());
  bool finer_beats_8 = false;
  for (const int areas : {4, 12, 16}) {
    int sign = 0;
    const std::string delta = bench::accuracy_delta(evals[areas], evals[8], sign);
    std::printf("  %2d areas: %s%s\n", areas, delta.c_str(),
                sign > 0 ? ", beats 8" : (sign < 0 ? ", below 8" : ""));
    finer_beats_8 = finer_beats_8 || (areas > 8 && sign > 0);
  }
  std::printf("%s\n", finer_beats_8
                          ? "finer partitions beat 8, as the paper expects"
                          : "finer partitions do not beat 8 here: the gain is bounded by "
                            "training data,\nas finer partitions thin out the counts");
  return 0;
}
