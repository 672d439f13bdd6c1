// A8 (extension) — qualitative training: the paper names structure learning
// ("qualitative training concerns the network structure of the model") but
// fixes its network by hand. This bench compares the paper's hand-fixed
// naive part structure against a learned Tree-Augmented Naive Bayes
// structure (Chow–Liu over class-conditional mutual information).
#include "bench_common.hpp"
#include "pose/features.hpp"

int main() {
  using namespace slj;
  bench::print_header("A8  observation structure: naive vs learned TAN (extension)",
                      "Sec. 4: qualitative vs quantitative training");

  const synth::Dataset dataset = bench::paper_corpus();

  // Naive (paper).
  core::FramePipeline p1;
  pose::PoseDbnClassifier naive;
  core::train_on_dataset(naive, p1, dataset);
  const auto naive_eval = core::evaluate_dataset(naive, p1, dataset.test);

  // TAN (learned structure).
  core::FramePipeline p2;
  pose::PoseDbnClassifier tan;
  core::TrainerOptions options;
  options.learn_tan_structure = true;
  core::train_on_dataset(tan, p2, dataset, options);
  const auto tan_eval = core::evaluate_dataset(tan, p2, dataset.test);

  bench::print_rule();
  std::printf("%-28s %-10s %-22s\n", "structure", "overall", "per clip");
  bench::print_rule();
  std::printf("%-28s %-10.1f %4.0f%% / %4.0f%% / %4.0f%%\n", "naive parts (paper)",
              100.0 * naive_eval.overall_accuracy(), 100.0 * naive_eval.clips[0].accuracy(),
              100.0 * naive_eval.clips[1].accuracy(), 100.0 * naive_eval.clips[2].accuracy());
  std::printf("%-28s %-10.1f %4.0f%% / %4.0f%% / %4.0f%%\n", "learned TAN",
              100.0 * tan_eval.overall_accuracy(), 100.0 * tan_eval.clips[0].accuracy(),
              100.0 * tan_eval.clips[1].accuracy(), 100.0 * tan_eval.clips[2].accuracy());
  bench::print_rule();
  std::printf("learned tree (part <- parent): ");
  for (int i = 0; i < pose::kPartCount; ++i) {
    const int p = tan.tan_structure()[static_cast<std::size_t>(i)];
    std::printf("%s<-%s  ",
                std::string(pose::part_name(static_cast<pose::Part>(i))).c_str(),
                p < 0 ? "pose" : std::string(pose::part_name(static_cast<pose::Part>(p))).c_str());
  }
  std::printf("\n");
  int sign = 0;
  std::printf("verdict (one test frame = %.2f pt): TAN vs naive %s\n",
              100.0 / naive_eval.total_frames(),
              bench::accuracy_delta(tan_eval, naive_eval, sign).c_str());
  if (sign > 0) {
    std::printf("the learned TAN structure beats the paper's naive parts\n");
  } else {
    std::printf("TAN captures part correlations the naive model ignores, but on %zu training "
                "frames\nthe extra CPT rows %s\n",
                dataset.train_frames(), sign == 0 ? "cost as much as they gain" : "cost accuracy");
  }
  return 0;
}
