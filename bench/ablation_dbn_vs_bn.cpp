// A1 — DBN vs static BN: the paper's core modelling claim is that the
// previous pose and the jumping-stage flag are "crucial to the pose of the
// current frame". Reproduced by evaluating the same trained observation
// model with and without the temporal links.
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace slj;
  bench::print_header("A1  DBN vs static BN",
                      "Sec. 4: previous pose + stage flag condition the current pose");

  const synth::Dataset dataset = bench::paper_corpus();

  struct Row {
    const char* name;
    pose::TemporalMode mode;
    bool stage_constraint;
  };
  const Row rows[] = {
      {"DBN (prev pose + stage flag)", pose::TemporalMode::kDbn, true},
      {"DBN without stage discipline", pose::TemporalMode::kDbn, false},
      {"static BN (no temporal links)", pose::TemporalMode::kStaticBn, false},
  };

  bench::print_rule();
  std::printf("%-34s %-10s %-22s %-10s\n", "model", "overall", "per clip", "unknown");
  bench::print_rule();
  std::vector<core::DatasetEvaluation> evals;
  for (const Row& row : rows) {
    pose::ClassifierConfig cfg;
    cfg.temporal = row.mode;
    cfg.use_stage_constraint = row.stage_constraint;
    bench::TrainedSystem sys = bench::train_system(dataset, cfg);
    core::ClipEngine engine(sys.pipeline.params());
    const core::DatasetEvaluation eval =
        core::evaluate_dataset(sys.classifier, engine, dataset.test);
    std::size_t unknown = 0;
    for (const auto& c : eval.clips) unknown += c.unknown;
    std::printf("%-34s %-10.1f %4.0f%% / %4.0f%% / %4.0f%%     %-10zu\n", row.name,
                100.0 * eval.overall_accuracy(), 100.0 * eval.clips[0].accuracy(),
                100.0 * eval.clips[1].accuracy(), 100.0 * eval.clips[2].accuracy(), unknown);
    evals.push_back(eval);
  }
  bench::print_rule();
  std::printf("verdict vs the full DBN (one test frame = %.2f pt):\n",
              100.0 / evals[0].total_frames());
  bool dbn_wins = true;
  for (std::size_t i = 1; i < evals.size(); ++i) {
    int sign = 0;
    const std::string delta = bench::accuracy_delta(evals[i], evals[0], sign);
    std::printf("  %-32s %s\n", rows[i].name, delta.c_str());
    dbn_wins = dbn_wins && sign < 0;
  }
  std::printf("%s\n", dbn_wins ? "the full DBN wins: dropping stage discipline or the temporal "
                                 "links costs accuracy,\nas the paper claims"
                               : "the full DBN does not beat every ablation here");
  return 0;
}
