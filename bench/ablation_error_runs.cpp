// A6 — error burstiness: "a misclassified frame will still affect the
// classification of its subsequent frames. Most errors in our experiments
// occurred in consecutive frames." Reproduced as the error run-length
// histogram on the test clips, compared against the static BN whose errors
// have no temporal coupling.
#include <map>

#include "bench_common.hpp"

namespace {

std::map<int, int> run_histogram(const slj::core::DatasetEvaluation& eval) {
  std::map<int, int> hist;
  for (const int r : slj::core::error_run_lengths(eval)) ++hist[r];
  return hist;
}

void print_histogram(const char* name, const std::map<int, int>& hist, std::size_t frames) {
  int errors = 0, runs = 0, multi = 0;
  for (const auto& [len, n] : hist) {
    errors += len * n;
    runs += n;
    multi += len >= 2 ? n : 0;
  }
  std::printf("%-28s errors=%d (%.1f%%)  runs=%d  runs>=2: %d", name, errors,
              100.0 * errors / static_cast<double>(frames), runs, multi);
  std::printf("   histogram:");
  for (const auto& [len, n] : hist) std::printf(" len%d x%d", len, n);
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace slj;
  bench::print_header("A6  error run-length analysis",
                      "Sec. 5: most errors occur in consecutive frames");

  const synth::Dataset dataset = bench::paper_corpus();

  pose::ClassifierConfig dbn_cfg;
  bench::TrainedSystem dbn = bench::train_system(dataset, dbn_cfg);
  core::ClipEngine engine(dbn.pipeline.params());
  const core::DatasetEvaluation dbn_eval =
      core::evaluate_dataset(dbn.classifier, engine, dataset.test);

  pose::ClassifierConfig static_cfg;
  static_cfg.temporal = pose::TemporalMode::kStaticBn;
  bench::TrainedSystem stat = bench::train_system(dataset, static_cfg);
  const core::DatasetEvaluation stat_eval =
      core::evaluate_dataset(stat.classifier, engine, dataset.test);

  bench::print_rule();
  print_histogram("DBN", run_histogram(dbn_eval), dataset.test_frames());
  print_histogram("static BN", run_histogram(stat_eval), dataset.test_frames());
  bench::print_rule();

  struct Errors {
    int total = 0;
    int in_runs = 0;  ///< errors inside runs of >= 2 consecutive frames
  };
  const auto count_errors = [](const core::DatasetEvaluation& eval) {
    Errors e;
    for (const int r : core::error_run_lengths(eval)) {
      e.total += r;
      if (r >= 2) e.in_runs += r;
    }
    return e;
  };
  const auto burst_share = [](const Errors& e) {
    return e.total > 0 ? static_cast<double>(e.in_runs) / e.total : 0.0;
  };
  const Errors dbn_errors = count_errors(dbn_eval);
  const Errors stat_errors = count_errors(stat_eval);
  std::printf("fraction of errors inside runs of >=2 consecutive frames: DBN %.0f%%, "
              "static BN %.0f%%\n",
              100.0 * burst_share(dbn_errors), 100.0 * burst_share(stat_errors));
  // "Most errors": more than half of a model's errors lie in multi-frame runs.
  const bool dbn_bursty = 2 * dbn_errors.in_runs > dbn_errors.total;
  const bool stat_bursty = 2 * stat_errors.in_runs > stat_errors.total;
  const char* runs = dbn_bursty && stat_bursty
                         ? "in both models most errors sit in multi-frame runs, as the paper "
                           "observes"
                     : dbn_bursty  ? "only the DBN keeps most errors in multi-frame runs"
                     : stat_bursty ? "only the static BN keeps most errors in multi-frame runs"
                                   : "neither model keeps most errors in multi-frame runs";
  std::printf("verdict: %s;\nthe DBN makes %s errors than the static BN (%d vs %d)\n", runs,
              dbn_errors.total < stat_errors.total ? "fewer" : "no fewer", dbn_errors.total,
              stat_errors.total);
  return 0;
}
