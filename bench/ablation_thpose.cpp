// A2 — Th_Pose: the per-pose acceptance threshold exists because "different
// poses in the training samples do not appear equally" — without it the
// dominant "standing & hands swung forward" pose would dominate the
// decision making. Reproduced as a Th_Pose sweep: overall accuracy, Unknown
// rate, and recall of the dominant vs the rare poses.
#include <vector>

#include "bench_common.hpp"

namespace {

struct Row {
  double th = 0.0;
  slj::core::DatasetEvaluation eval;
  std::size_t unknown = 0;
  std::size_t dom_total = 0, dom_hit = 0, rare_total = 0, rare_hit = 0;
};

double pct(std::size_t hit, std::size_t total) {
  return total > 0 ? 100.0 * static_cast<double>(hit) / static_cast<double>(total) : 0.0;
}

/// Change in correctly recognised frames, judged at one test frame: +1 / -1
/// past one frame, 0 within it.
int frame_sign(std::size_t now, std::size_t base) {
  const long frames = static_cast<long>(now) - static_cast<long>(base);
  return frames > 1 ? 1 : (frames < -1 ? -1 : 0);
}

}  // namespace

int main() {
  using namespace slj;
  bench::print_header("A2  Th_Pose sweep",
                      "Sec. 4.2: threshold so rare poses are not drowned by the dominant one");

  const synth::Dataset dataset = bench::paper_corpus();

  bench::print_rule();
  std::printf("%-10s %-10s %-10s %-18s %-18s\n", "Th_Pose", "overall", "unknown",
              "dominant recall", "rare-pose recall");
  bench::print_rule();
  std::vector<Row> rows;
  for (const double th : {0.0, 0.10, 0.25, 0.40, 0.60, 0.80}) {
    pose::ClassifierConfig cfg;
    cfg.th_pose = th;
    bench::TrainedSystem sys = bench::train_system(dataset, cfg);
    Row row;
    row.th = th;
    core::ClipEngine engine(sys.pipeline.params());
    row.eval = core::evaluate_dataset(sys.classifier, engine, dataset.test);

    const core::ConfusionMatrix cm = core::confusion_matrix(row.eval);
    const int dom = pose::index_of(pose::ClassifierConfig::kDominantPose);
    for (int t = 0; t < pose::kPoseCount; ++t) {
      std::size_t row_total = 0;
      for (int p = 0; p <= pose::kPoseCount; ++p) {
        row_total += cm[static_cast<std::size_t>(t)][static_cast<std::size_t>(p)];
      }
      row.unknown += cm[static_cast<std::size_t>(t)][pose::kPoseCount];
      const std::size_t hit = cm[static_cast<std::size_t>(t)][static_cast<std::size_t>(t)];
      if (t == dom) {
        row.dom_total += row_total;
        row.dom_hit += hit;
      } else {
        row.rare_total += row_total;
        row.rare_hit += hit;
      }
    }
    std::printf("%-10.2f %-10.1f %-10zu %-18.1f %-18.1f\n", th,
                100.0 * row.eval.overall_accuracy(), row.unknown,
                pct(row.dom_hit, row.dom_total), pct(row.rare_hit, row.rare_total));
    rows.push_back(row);
  }
  bench::print_rule();

  std::size_t best = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].eval.total_correct() > rows[best].eval.total_correct()) best = i;
  }
  const Row& top = rows[best];
  const Row& low = rows.front();
  const Row& high = rows.back();
  std::printf("verdict vs the best Th_Pose, %.2f (one test frame = %.2f pt):\n", top.th,
              100.0 / static_cast<double>(top.eval.total_frames()));

  int sign = 0;
  const std::string low_delta = bench::accuracy_delta(low.eval, top.eval, sign);
  const int dom_sign = frame_sign(low.dom_hit, top.dom_hit);
  const int rare_sign = frame_sign(low.rare_hit, top.rare_hit);
  std::printf("  Th_Pose %.2f: %s; dominant recall %.1f vs %.1f, rare-pose recall %.1f vs %.1f\n",
              low.th, low_delta.c_str(), pct(low.dom_hit, low.dom_total),
              pct(top.dom_hit, top.dom_total), pct(low.rare_hit, low.rare_total),
              pct(top.rare_hit, top.rare_total));
  if (dom_sign < 0) {
    std::printf("  -> very low Th_Pose lets the rare poses take the dominant pose's frames, %s\n",
                rare_sign > 0 ? "for a rare-pose gain" : "with no rare-pose gain");
  } else if (rare_sign < 0) {
    std::printf("  -> very low Th_Pose lets the dominant pose eat rare-pose frames\n");
  } else {
    std::printf("  -> very low Th_Pose costs neither recall more than one test frame\n");
  }

  const std::string high_delta = bench::accuracy_delta(high.eval, top.eval, sign);
  std::printf("  Th_Pose %.2f: %s; %zu Unknown frames vs %zu\n", high.th, high_delta.c_str(),
              high.unknown, top.unknown);
  std::printf("  -> %s\n", high.unknown > top.unknown + 1 && sign < 0
                                ? "very high Th_Pose pushes frames to Unknown and costs accuracy"
                                : "very high Th_Pose costs no accuracy through Unknown frames");
  std::printf("%s\n", best > 0 && best + 1 < rows.size()
                         ? "a mid Th_Pose balances both ends, as the paper's threshold intends"
                         : "the best Th_Pose sits at the sweep's edge: no mid value balances "
                           "both ends");
  return 0;
}
