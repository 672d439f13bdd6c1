// A9 (extension) — leave-one-clip-out cross-validation. The paper evaluates
// on a single fixed 12/3 split; with 15 clips total, leave-one-out gives a
// variance estimate the single split cannot. The verdict compares the
// paper's reported band with the spread of the folds.
#include <algorithm>
#include <cmath>
#include <vector>

#include "bench_common.hpp"

int main() {
  using namespace slj;
  bench::print_header("A9  leave-one-clip-out cross-validation (extension)",
                      "Sec. 5: single 12/3 split -> per-clip variance unknown");

  // Pool all 15 clips (12 + 3) from the reference corpus.
  const synth::Dataset base = bench::paper_corpus();
  std::vector<synth::Clip> clips = base.train;
  clips.insert(clips.end(), base.test.begin(), base.test.end());

  bench::print_rule();
  std::printf("%-12s %-10s %-10s\n", "held out", "frames", "accuracy");
  bench::print_rule();
  double sum = 0.0, sum_sq = 0.0;
  std::vector<double> fold_pct;
  for (std::size_t held = 0; held < clips.size(); ++held) {
    synth::Dataset fold;
    for (std::size_t i = 0; i < clips.size(); ++i) {
      (i == held ? fold.test : fold.train).push_back(clips[i]);
    }
    core::FramePipeline pipeline;
    pose::PoseDbnClassifier classifier;
    core::train_on_dataset(classifier, pipeline, fold);
    const auto eval = core::evaluate_dataset(classifier, pipeline, fold.test);
    const double acc = eval.overall_accuracy();
    sum += acc;
    sum_sq += acc * acc;
    fold_pct.push_back(100.0 * acc);
    std::printf("%-12zu %-10zu %-10.1f\n", held + 1, eval.total_frames(), 100.0 * acc);
    std::fflush(stdout);
  }
  bench::print_rule();
  const double n = static_cast<double>(clips.size());
  const double mean = sum / n;
  const double stddev = std::sqrt(std::max(0.0, sum_sq / n - mean * mean));
  std::printf("mean accuracy %.1f%%  (std dev %.1f points over %d folds)\n", 100.0 * mean,
              100.0 * stddev, static_cast<int>(n));

  // Quartiles by linear interpolation between order statistics.
  std::sort(fold_pct.begin(), fold_pct.end());
  const auto quantile = [&](double q) {
    const double pos = q * static_cast<double>(fold_pct.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, fold_pct.size() - 1);
    return fold_pct[lo] + (pos - static_cast<double>(lo)) * (fold_pct[hi] - fold_pct[lo]);
  };
  const double lo = fold_pct.front(), hi = fold_pct.back();
  const double q1 = quantile(0.25), q3 = quantile(0.75);
  std::printf("folds: min %.1f%%  Q1 %.1f%%  Q3 %.1f%%  max %.1f%%  (IQR %.1f points)\n", lo, q1,
              q3, hi, q3 - q1);
  constexpr double kPaperLow = 81.0, kPaperHigh = 87.0;
  const char* verdict = lo <= kPaperLow && hi >= kPaperHigh ? "falls inside"
                        : lo <= kPaperHigh && hi >= kPaperLow ? "overlaps, but is not inside,"
                                                              : "lies outside";
  std::printf("verdict: the paper's band (%.0f%%..%.0f%%) %s the fold range (%.1f%%..%.1f%%)\n",
              kPaperLow, kPaperHigh, verdict, lo, hi);
  return 0;
}
