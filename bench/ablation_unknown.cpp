// A5 — the Unknown-propagation rule: "the previous pose for the next frame
// should be set to the pose that is recognized most recently instead of
// 'Unknown' ... From our experience, this is really useful." Reproduced by
// toggling the carry rule at several Th_Pose levels (higher thresholds
// produce more Unknown frames, which is where the rule matters).
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace slj;
  bench::print_header("A5  Unknown-pose propagation rule",
                      "Sec. 5: feed the most recently recognized pose, not Unknown");

  const synth::Dataset dataset = bench::paper_corpus();

  struct Row {
    double th;
    core::DatasetEvaluation eval[2];  // [0] carry, [1] reset
    std::size_t unknown[2];
  };
  bench::print_rule();
  std::printf("%-10s %-26s %-10s %-10s\n", "Th_Pose", "previous-pose rule", "overall",
              "unknown");
  bench::print_rule();
  std::vector<Row> rows;
  for (const double th : {0.25, 0.60, 0.85}) {
    Row row{th, {}, {0, 0}};
    for (const bool carry : {true, false}) {
      pose::ClassifierConfig cfg;
      cfg.th_pose = th;
      cfg.carry_last_recognized = carry;
      bench::TrainedSystem sys = bench::train_system(dataset, cfg);
      const std::size_t k = carry ? 0 : 1;
      core::ClipEngine engine(sys.pipeline.params());
      row.eval[k] = core::evaluate_dataset(sys.classifier, engine, dataset.test);
      for (const auto& c : row.eval[k].clips) row.unknown[k] += c.unknown;
      std::printf("%-10.2f %-26s %-10.1f %-10zu\n", th,
                  carry ? "carry last recognized" : "reset to uninformative",
                  100.0 * row.eval[k].overall_accuracy(), row.unknown[k]);
    }
    rows.push_back(row);
  }
  bench::print_rule();
  std::printf("verdict, carry vs reset (one test frame = %.2f pt):\n",
              100.0 / static_cast<double>(rows[0].eval[0].total_frames()));
  int carry_wins = 0;
  int reset_wins = 0;
  for (const Row& row : rows) {
    int sign = 0;
    const std::string delta = bench::accuracy_delta(row.eval[0], row.eval[1], sign);
    std::printf("  Th_Pose %.2f, %zu vs %zu Unknown: %s%s\n", row.th, row.unknown[0],
                row.unknown[1], delta.c_str(),
                sign > 0 ? ", carry wins" : (sign < 0 ? ", reset wins" : ""));
    carry_wins += sign > 0 ? 1 : 0;
    reset_wins += sign < 0 ? 1 : 0;
  }
  if (reset_wins == 0) {
    std::printf("%s\n", carry_wins > 0
                           ? "the carry rule recovers accuracy, as the paper reports"
                           : "the carry rule is neutral: within one test frame at every "
                             "Th_Pose");
  } else {
    std::printf("%s\n", carry_wins > 0
                           ? "the carry rule helps at some Th_Pose levels and hurts at others"
                           : "reset never loses to carry by more than one test frame: the "
                             "paper's \"really useful\"\ncarry rule does not recover "
                             "accuracy on this corpus");
  }
  return 0;
}
