// The paper's Sec. 5 experiment in one program: T1's per-clip accuracy and
// the ablations around it, over one seed-2008 corpus of 522 training and 135
// test frames (12 + 3 clips). It takes no arguments and prints ten tables in
// the order T1, A1, A2, A3, A4, A5, A6, A7, A9, D1, each ending with a
// verdict computed from its own rows at the test set's resolution of one
// frame. The corpus is generated and each clip's vision pass run once; each
// classifier configuration is trained and evaluated once from those cached
// observations, however many tables read it.
// ctest `paper_matches_golden` pins the output byte for byte against
// tests/golden/paper_seed2008.txt.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "bench_common.hpp"
#include "detection/blob_tracker.hpp"
#include "imaging/draw.hpp"
#include "imaging/morphology.hpp"
#include "pose/decoders.hpp"

namespace {

using namespace slj;

/// A model trained on some corpus clips and its evaluation on others.
struct Arm {
  pose::PoseDbnClassifier classifier;
  core::TrainingStats stats;
  core::DatasetEvaluation eval;
};

/// One vision pass over `clip`, without the frame-sized images no table reads.
core::ClipObservation observe(core::ClipEngine& engine, const synth::Clip& clip) {
  core::ClipObservation observed = engine.process(clip);
  for (core::FrameObservation& frame : observed.frames) {
    frame.silhouette = {};
    frame.raw_skeleton = {};
  }
  return observed;
}

/// The shared corpus and its vision output, clips indexed training first,
/// then test (A9's fold order). Training reads only the graphs and airborne
/// flags, so the 8-area pass trains any area count; scoring reads the
/// area-coded candidates, so the test clips also run at A3's other counts.
class Experiment {
 public:
  const synth::Dataset dataset = bench::paper_corpus();

  Experiment() {
    core::ClipEngine engine;
    for (std::size_t i = 0; i < clip_count(); ++i) observed_.push_back(observe(engine, clip(i)));
    for (const int areas : {4, 12, 16}) {
      core::PipelineParams params;
      params.num_areas = areas;
      core::ClipEngine other(params);
      for (const synth::Clip& c : dataset.test) test_at_areas_[areas].push_back(observe(other, c));
    }
  }

  std::size_t train_count() const { return dataset.train.size(); }
  std::size_t clip_count() const { return train_count() + dataset.test.size(); }
  const synth::Clip& clip(std::size_t i) const {
    return i < train_count() ? dataset.train[i] : dataset.test[i - train_count()];
  }
  /// Clip `i`'s observations at `areas`; only test clips have counts but 8.
  const core::ClipObservation& observation(std::size_t i, int areas = 8) const {
    return areas == 8 ? observed_[i] : test_at_areas_.at(areas)[i - train_count()];
  }

  /// A classifier for `config` trained on clips [0, end), skipping `held`.
  Arm train(const pose::ClassifierConfig& config, std::size_t end,
            std::size_t held = SIZE_MAX) const {
    Arm arm{pose::PoseDbnClassifier(config), {}, {}};
    for (std::size_t i = 0; i < end; ++i) {
      if (i != held) arm.stats += core::train_on_clip(arm.classifier, observed_[i], clip(i));
    }
    return arm;
  }

  /// `classifier` scored on clips [first, last) at its own area count.
  core::DatasetEvaluation evaluate(const pose::PoseDbnClassifier& classifier, std::size_t first,
                                   std::size_t last) const {
    core::DatasetEvaluation eval;
    for (std::size_t i = first; i < last; ++i) {
      eval.clips.push_back(core::evaluate_clip(
          classifier, observation(i, classifier.config().num_areas), clip(i)));
    }
    return eval;
  }

  /// The arm for `config` trained on the training clips and scored on the
  /// test clips, on first use.
  const Arm& arm(const pose::ClassifierConfig& config = {}) {
    const auto key = std::tuple(config.num_areas, config.th_pose, config.temporal,
                                config.use_stage_constraint, config.carry_last_recognized);
    auto it = arms_.find(key);
    if (it == arms_.end()) {
      Arm arm = train(config, train_count());
      arm.eval = evaluate(arm.classifier, train_count(), clip_count());
      it = arms_.emplace(key, std::move(arm)).first;
    }
    return it->second;
  }

 private:
  std::vector<core::ClipObservation> observed_;  ///< every clip at 8 areas
  std::map<int, std::vector<core::ClipObservation>> test_at_areas_;  ///< at 4, 12 and 16
  std::map<std::tuple<int, double, pose::TemporalMode, bool, bool>, Arm> arms_;
};

/// A1's and A6's static BN: no temporal links, so no stage discipline.
const pose::ClassifierConfig kStaticBn{.temporal = pose::TemporalMode::kStaticBn,
                                       .use_stage_constraint = false};

/// A change of `frames` correctly recognised test frames, judged at the test
/// set's resolution of one frame: +1 / -1 past one frame, 0 within it.
int frame_sign(long frames) { return frames > 1 ? 1 : (frames < -1 ? -1 : 0); }

/// Paired accuracy delta of `frames` more correct test frames out of
/// `total_frames`: "+0.0 pt, within one test frame" or "-3.0 pt (-4 test
/// frames)", with `sign` set to frame_sign(frames).
std::string accuracy_delta(long frames, std::size_t total_frames, int& sign) {
  const double points = 100.0 * static_cast<double>(frames) / static_cast<double>(total_frames);
  sign = frame_sign(frames);
  char buf[64];
  if (sign == 0) {
    std::snprintf(buf, sizeof(buf), "%+.1f pt, within one test frame", points);
  } else {
    std::snprintf(buf, sizeof(buf), "%+.1f pt (%+ld test frames)", points, frames);
  }
  return buf;
}

/// The same, from two evaluations of the same test frames.
std::string accuracy_delta(const core::DatasetEvaluation& eval,
                           const core::DatasetEvaluation& baseline, int& sign) {
  return accuracy_delta(
      static_cast<long>(eval.total_correct()) - static_cast<long>(baseline.total_correct()),
      eval.total_frames(), sign);
}

/// "  76% /   73% /   80%": the three test clips' pose accuracy.
std::string per_clip(const core::DatasetEvaluation& eval) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%4.0f%% / %4.0f%% / %4.0f%%",
                100.0 * eval.clips[0].accuracy(), 100.0 * eval.clips[1].accuracy(),
                100.0 * eval.clips[2].accuracy());
  return buf;
}

std::size_t unknown_frames(const core::DatasetEvaluation& eval) {
  std::size_t unknown = 0;
  for (const auto& c : eval.clips) unknown += c.unknown;
  return unknown;
}

struct Errors {
  int total = 0;
  int in_runs = 0;  ///< errors inside runs of >= 2 consecutive frames
};

Errors count_errors(const core::DatasetEvaluation& eval) {
  Errors e;
  for (const int r : core::error_run_lengths(eval)) {
    e.total += r;
    if (r >= 2) e.in_runs += r;
  }
  return e;
}

double pct(std::size_t hit, std::size_t total) {
  return total > 0 ? 100.0 * static_cast<double>(hit) / static_cast<double>(total) : 0.0;
}

/// T1, the paper's headline result (Sec. 5, reported in text): "Twelve
/// video clips are used as the training set and three others are used as
/// the test set ... The overall accuracy is from 81% to 87% for the three
/// test video clips." Per-clip pose accuracy of the full pipeline + DBN.
void table_t1(Experiment& ex) {
  bench::print_header("T1  per-clip pose estimation accuracy",
                      "Sec. 5 text table: 81%..87% per test clip, 522/135 train/test frames");
  std::printf("training frames: %zu (paper: 522)\n", ex.dataset.train_frames());
  std::printf("test frames:     %zu (paper: 135)\n", ex.dataset.test_frames());
  const Arm& arm = ex.arm();
  std::printf("frames without usable skeleton during training: %zu\n\n",
              arm.stats.frames_without_skeleton);

  bench::print_rule();
  std::printf("%-12s %-10s %-10s %-10s %-12s %-12s\n", "test clip", "frames", "correct",
              "unknown", "pose acc", "stage acc");
  bench::print_rule();
  for (std::size_t i = 0; i < arm.eval.clips.size(); ++i) {
    const core::ClipEvaluation& c = arm.eval.clips[i];
    std::printf("%-12zu %-10zu %-10zu %-10zu %-12.1f %-12.1f\n", i + 1, c.frames, c.correct,
                c.unknown, 100.0 * c.accuracy(), 100.0 * c.stage_accuracy());
  }
  bench::print_rule();
  std::printf("overall pose accuracy: %.1f%%  (clip range %.1f%%..%.1f%%)\n",
              100.0 * arm.eval.overall_accuracy(), 100.0 * arm.eval.min_clip_accuracy(),
              100.0 * arm.eval.max_clip_accuracy());
  std::printf("paper:                 81%%..87%% per clip\n");
}

/// A1: the paper's core modelling claim is that the previous pose and the
/// jumping-stage flag are "crucial to the pose of the current frame". The
/// same observation model with and without the temporal links.
void table_a1(Experiment& ex) {
  bench::print_header("A1  DBN vs static BN",
                      "Sec. 4: previous pose + stage flag condition the current pose");
  struct Row {
    const char* name;
    pose::ClassifierConfig config;
  };
  const Row rows[] = {
      {"DBN (prev pose + stage flag)", {}},
      {"DBN without stage discipline", {.use_stage_constraint = false}},
      {"static BN (no temporal links)", kStaticBn},
  };

  bench::print_rule();
  std::printf("%-34s %-10s %-22s %-10s\n", "model", "overall", "per clip", "unknown");
  bench::print_rule();
  for (const Row& row : rows) {
    const core::DatasetEvaluation& eval = ex.arm(row.config).eval;
    std::printf("%-34s %-10.1f %s     %-10zu\n", row.name, 100.0 * eval.overall_accuracy(),
                per_clip(eval).c_str(), unknown_frames(eval));
  }
  bench::print_rule();
  const core::DatasetEvaluation& dbn = ex.arm().eval;
  std::printf("verdict vs the full DBN (one test frame = %.2f pt):\n",
              100.0 / dbn.total_frames());
  bool dbn_wins = true;
  for (std::size_t i = 1; i < std::size(rows); ++i) {
    int sign = 0;
    const std::string delta = accuracy_delta(ex.arm(rows[i].config).eval, dbn, sign);
    std::printf("  %-32s %s\n", rows[i].name, delta.c_str());
    dbn_wins = dbn_wins && sign < 0;
  }
  std::printf("%s\n", dbn_wins ? "the full DBN wins: dropping stage discipline or the temporal "
                                 "links costs accuracy,\nas the paper claims"
                               : "the full DBN does not beat every ablation here");
}

/// A2: the per-pose acceptance threshold exists because "different poses in
/// the training samples do not appear equally"; without it the dominant
/// "standing & hands swung forward" pose would dominate the decision. A
/// Th_Pose sweep: overall accuracy, Unknown rate, and recall of the
/// dominant vs the rare poses.
void table_a2(Experiment& ex) {
  bench::print_header("A2  Th_Pose sweep",
                      "Sec. 4.2: threshold so rare poses are not drowned by the dominant one");
  struct Row {
    double th = 0.0;
    const core::DatasetEvaluation* eval = nullptr;
    std::size_t unknown = 0;
    std::size_t dom_total = 0, dom_hit = 0, rare_total = 0, rare_hit = 0;
  };

  bench::print_rule();
  std::printf("%-10s %-10s %-10s %-18s %-18s\n", "Th_Pose", "overall", "unknown",
              "dominant recall", "rare-pose recall");
  bench::print_rule();
  std::vector<Row> rows;
  for (const double th : {0.0, 0.10, 0.25, 0.40, 0.60, 0.80}) {
    Row row;
    row.th = th;
    row.eval = &ex.arm({.th_pose = th}).eval;
    const core::ConfusionMatrix cm = core::confusion_matrix(*row.eval);
    const int dom = pose::index_of(pose::ClassifierConfig::kDominantPose);
    for (int t = 0; t < pose::kPoseCount; ++t) {
      const auto& truth_row = cm[static_cast<std::size_t>(t)];
      std::size_t row_total = 0;
      for (const std::size_t n : truth_row) row_total += n;
      row.unknown += truth_row[pose::kPoseCount];
      (t == dom ? row.dom_total : row.rare_total) += row_total;
      (t == dom ? row.dom_hit : row.rare_hit) += truth_row[static_cast<std::size_t>(t)];
    }
    std::printf("%-10.2f %-10.1f %-10zu %-18.1f %-18.1f\n", th,
                100.0 * row.eval->overall_accuracy(), row.unknown,
                pct(row.dom_hit, row.dom_total), pct(row.rare_hit, row.rare_total));
    rows.push_back(row);
  }
  bench::print_rule();

  std::size_t best = 0;
  for (std::size_t i = 1; i < rows.size(); ++i) {
    if (rows[i].eval->total_correct() > rows[best].eval->total_correct()) best = i;
  }
  const Row& top = rows[best];
  const Row& low = rows.front();
  const Row& high = rows.back();
  std::printf("verdict vs the best Th_Pose, %.2f (one test frame = %.2f pt):\n", top.th,
              100.0 / static_cast<double>(top.eval->total_frames()));

  const auto change = [](std::size_t now, std::size_t base) {
    return static_cast<long>(now) - static_cast<long>(base);
  };
  int sign = 0;
  const std::string low_delta = accuracy_delta(*low.eval, *top.eval, sign);
  const int dom_sign = frame_sign(change(low.dom_hit, top.dom_hit));
  const int rare_sign = frame_sign(change(low.rare_hit, top.rare_hit));
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

  const std::string high_delta = accuracy_delta(*high.eval, *top.eval, sign);
  std::printf("  Th_Pose %.2f: %s; %zu Unknown frames vs %zu\n", high.th, high_delta.c_str(),
              high.unknown, top.unknown);
  std::printf("  -> %s\n", high.unknown > top.unknown + 1 && sign < 0
                                ? "very high Th_Pose pushes frames to Unknown and costs accuracy"
                                : "very high Th_Pose costs no accuracy through Unknown frames");
  std::printf("%s\n", best > 0 && best + 1 < rows.size()
                         ? "a mid Th_Pose balances both ends, as the paper's threshold intends"
                         : "the best Th_Pose sits at the sweep's edge: no mid value balances "
                           "both ends");
}

/// A3, the paper's future work: "more partitions instead of just eight as
/// shown in Figure 6 can be used for feature encoding. More information
/// would further improve the classification results."
void table_a3(Experiment& ex) {
  bench::print_header("A3  area partition sweep",
                      "Sec. 6: more partitions than eight should further improve results");
  bench::print_rule();
  std::printf("%-10s %-10s %-22s\n", "areas", "overall", "per clip");
  bench::print_rule();
  for (const int areas : {4, 8, 12, 16}) {
    const core::DatasetEvaluation& eval = ex.arm({.num_areas = areas}).eval;
    std::printf("%-10d %-10.1f %s\n", areas, 100.0 * eval.overall_accuracy(),
                per_clip(eval).c_str());
  }
  bench::print_rule();
  const core::DatasetEvaluation& eight = ex.arm().eval;
  std::printf("verdict vs 8 areas (one test frame = %.2f pt):\n", 100.0 / eight.total_frames());
  bool finer_beats_8 = false;
  for (const int areas : {4, 12, 16}) {
    int sign = 0;
    const std::string delta = accuracy_delta(ex.arm({.num_areas = areas}).eval, eight, sign);
    std::printf("  %2d areas: %s%s\n", areas, delta.c_str(),
                sign > 0 ? ", beats 8" : (sign < 0 ? ", below 8" : ""));
    finer_beats_8 = finer_beats_8 || (areas > 8 && sign > 0);
  }
  std::printf("%s\n", finer_beats_8
                          ? "finer partitions beat 8, as the paper expects"
                          : "finer partitions do not beat 8 here: the gain is bounded by "
                            "training data,\nas finer partitions thin out the counts");
}

/// A4: the paper attributes part of its error to the small corpus ("the
/// number of training samples is small. The probabilities of these poses
/// are not large enough to be accepted."). Accuracy over the number of
/// training clips, with the test clips held fixed. The k-clip training set
/// is the corpus's first k clips: clip seeds count up from the corpus seed,
/// and the test seeds are offset by 1000, so a k-clip corpus generated on
/// its own holds exactly these clips.
void table_a4(Experiment& ex) {
  bench::print_header("A4  training-set size sweep",
                      "Sec. 5: accuracy limited by the small number of training samples");
  bench::print_rule();
  std::printf("%-14s %-14s %-10s %-22s\n", "train clips", "train frames", "overall",
              "per clip");
  bench::print_rule();
  std::map<int, core::DatasetEvaluation> evals;
  for (const int clips : {2, 4, 6, 8, 10}) {
    const Arm arm = ex.train({}, static_cast<std::size_t>(clips));
    evals[clips] = ex.evaluate(arm.classifier, ex.train_count(), ex.clip_count());
    std::printf("%-14d %-14zu %-10.1f %s\n", clips, arm.stats.frames,
                100.0 * evals[clips].overall_accuracy(), per_clip(evals[clips]).c_str());
  }
  evals[12] = ex.arm().eval;
  std::printf("%-14d %-14zu %-10.1f %s\n", 12, ex.dataset.train_frames(),
              100.0 * evals[12].overall_accuracy(), per_clip(evals[12]).c_str());
  bench::print_rule();
  int growth = 0, late = 0;
  std::printf("verdict (one test frame = %.2f pt):\n", 100.0 / evals[12].total_frames());
  std::printf("  12 vs 2 clips: %s\n", accuracy_delta(evals[12], evals[2], growth).c_str());
  std::printf("  12 vs 8 clips: %s\n", accuracy_delta(evals[12], evals[8], late).c_str());
  std::printf("accuracy %s with training clips %s\n", growth > 0 ? "grows" : "does not grow",
              late > 0    ? "and is not yet saturated at 12 — matching the paper's call for "
                            "more training data"
              : late == 0 ? "and is flat from 8 to 12 clips at this resolution"
                          : "but falls from 8 to 12 clips");
}

/// A5, the Unknown-propagation rule: "the previous pose for the next frame
/// should be set to the pose that is recognized most recently instead of
/// 'Unknown' ... From our experience, this is really useful." The carry
/// rule toggled at several Th_Pose levels (higher thresholds produce more
/// Unknown frames, which is where the rule matters).
void table_a5(Experiment& ex) {
  bench::print_header("A5  Unknown-pose propagation rule",
                      "Sec. 5: feed the most recently recognized pose, not Unknown");
  bench::print_rule();
  std::printf("%-10s %-26s %-10s %-10s\n", "Th_Pose", "previous-pose rule", "overall",
              "unknown");
  bench::print_rule();
  const double levels[] = {0.25, 0.60, 0.85};
  // eval(th, true) carries the last recognized pose, eval(th, false) resets.
  const auto eval = [&](double th, bool carry) -> const core::DatasetEvaluation& {
    return ex.arm({.th_pose = th, .carry_last_recognized = carry}).eval;
  };
  for (const double th : levels) {
    for (const bool carry : {true, false}) {
      std::printf("%-10.2f %-26s %-10.1f %-10zu\n", th,
                  carry ? "carry last recognized" : "reset to uninformative",
                  100.0 * eval(th, carry).overall_accuracy(), unknown_frames(eval(th, carry)));
    }
  }
  bench::print_rule();
  std::printf("verdict, carry vs reset (one test frame = %.2f pt):\n",
              100.0 / static_cast<double>(eval(levels[0], true).total_frames()));
  int carry_wins = 0;
  int reset_wins = 0;
  for (const double th : levels) {
    int sign = 0;
    const std::string delta = accuracy_delta(eval(th, true), eval(th, false), sign);
    std::printf("  Th_Pose %.2f, %zu vs %zu Unknown: %s%s\n", th, unknown_frames(eval(th, true)),
                unknown_frames(eval(th, false)), delta.c_str(),
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
}

/// A6, error burstiness: "a misclassified frame will still affect the
/// classification of its subsequent frames. Most errors in our experiments
/// occurred in consecutive frames." The error run-length histogram on the
/// test clips, against the static BN whose errors have no temporal coupling.
void table_a6(Experiment& ex) {
  bench::print_header("A6  error run-length analysis",
                      "Sec. 5: most errors occur in consecutive frames");
  const core::DatasetEvaluation& dbn_eval = ex.arm().eval;
  const core::DatasetEvaluation& stat_eval = ex.arm(kStaticBn).eval;
  const auto print_histogram = [&](const char* name, const core::DatasetEvaluation& eval) {
    std::map<int, int> hist;
    for (const int r : core::error_run_lengths(eval)) ++hist[r];
    int errors = 0, runs = 0, multi = 0;
    for (const auto& [len, n] : hist) {
      errors += len * n;
      runs += n;
      multi += len >= 2 ? n : 0;
    }
    std::printf("%-28s errors=%d (%.1f%%)  runs=%d  runs>=2: %d", name, errors,
                100.0 * errors / static_cast<double>(ex.dataset.test_frames()), runs, multi);
    std::printf("   histogram:");
    for (const auto& [len, n] : hist) std::printf(" len%d x%d", len, n);
    std::printf("\n");
  };

  bench::print_rule();
  print_histogram("DBN", dbn_eval);
  print_histogram("static BN", stat_eval);
  bench::print_rule();

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
}

/// A7 (extension), sequence decoders: the paper commits to a per-frame
/// point estimate and notes the consequence ("a misclassified frame will
/// still affect the classification of its subsequent frames"); its Sec. 6
/// asks for refinement on the DBN. The paper's online rule against forward
/// filtering (full belief) and offline Viterbi, on the same trained CPTs.
void table_a7(Experiment& ex) {
  bench::print_header("A7  sequence decoders (extension)",
                      "Sec. 5/6: error propagation from point estimates; DBN refinement");
  const Arm& arm = ex.arm();
  struct Row {
    const char* name;
    pose::SequenceDecoder decoder;
  };
  const Row rows[] = {
      {"online point estimate (paper)", pose::SequenceDecoder::kOnline},
      {"forward filtering (belief)", pose::SequenceDecoder::kFiltering},
      {"Viterbi (offline max-product)", pose::SequenceDecoder::kViterbi},
  };

  bench::print_rule();
  std::printf("%-32s %-10s %-22s %-14s\n", "decoder", "overall", "per clip",
              "errors in runs>=2");
  bench::print_rule();
  std::vector<core::DatasetEvaluation> evals;
  for (const Row& row : rows) {
    core::DatasetEvaluation eval;
    for (std::size_t c = ex.train_count(); c < ex.clip_count(); ++c) {
      const synth::Clip& clip = ex.clip(c);
      const core::ClipObservation& observed = ex.observation(c);
      core::ClipEvaluation ce;
      ce.results = pose::decode_sequence(arm.classifier, observed.candidate_sets(),
                                         observed.airborne, row.decoder);
      for (std::size_t i = 0; i < ce.results.size(); ++i) {
        ++ce.frames;
        ce.correct += ce.results[i].pose == clip.truth[i].pose ? 1 : 0;
        ce.truth.push_back(clip.truth[i].pose);
      }
      eval.clips.push_back(std::move(ce));
    }
    const Errors errors = count_errors(eval);
    std::printf("%-32s %-10.1f %s    %3d / %-3d\n", row.name, 100.0 * eval.overall_accuracy(),
                per_clip(eval).c_str(), errors.in_runs, errors.total);
    evals.push_back(std::move(eval));
  }
  bench::print_rule();
  std::printf("verdict vs the online rule (one test frame = %.2f pt):\n",
              100.0 / evals[0].total_frames());
  int smoother_wins = 0, online_wins = 0;
  for (std::size_t i = 1; i < evals.size(); ++i) {
    int sign = 0;
    const std::string delta = accuracy_delta(evals[i], evals[0], sign);
    std::printf("  %-32s %s\n", rows[i].name, delta.c_str());
    smoother_wins += sign > 0 ? 1 : 0;
    online_wins += sign < 0 ? 1 : 0;
  }
  if (smoother_wins > 0) {
    std::printf("a whole-clip decoder beats the online rule: the paper's error-propagation "
                "worry costs accuracy here\n");
  } else if (online_wins > 0) {
    std::printf("the online rule is not beaten: smoothing does not recover the residual "
                "errors, and the paper's\nerror-propagation worry is bounded by the stage "
                "discipline\n");
  } else {
    std::printf("the three decoders agree within one test frame\n");
  }
}

/// A9 (extension), leave-one-clip-out cross-validation. The paper evaluates
/// on a single fixed 12/3 split; with 15 clips, leave-one-out gives a
/// variance estimate the single split cannot. The verdict compares the
/// paper's reported band with the spread of the folds.
void table_a9(Experiment& ex) {
  bench::print_header("A9  leave-one-clip-out cross-validation (extension)",
                      "Sec. 5: single 12/3 split -> per-clip variance unknown");

  bench::print_rule();
  std::printf("%-12s %-10s %-10s\n", "held out", "frames", "accuracy");
  bench::print_rule();
  double sum = 0.0, sum_sq = 0.0;
  std::vector<double> fold_pct;
  for (std::size_t held = 0; held < ex.clip_count(); ++held) {
    const Arm arm = ex.train({}, ex.clip_count(), held);
    const core::DatasetEvaluation eval = ex.evaluate(arm.classifier, held, held + 1);
    const double acc = eval.overall_accuracy();
    sum += acc;
    sum_sq += acc * acc;
    fold_pct.push_back(100.0 * acc);
    std::printf("%-12zu %-10zu %-10.1f\n", held + 1, eval.total_frames(), 100.0 * acc);
  }
  bench::print_rule();
  const double n = static_cast<double>(ex.clip_count());
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
}

/// Paints a person-sized static distractor into the frame's right edge.
RgbImage with_distractor(RgbImage frame) {
  BinaryImage mask(frame.width(), frame.height(), 0);
  const double cx = frame.width() - 26;
  const double ground = 150.0;
  fill_capsule(mask, {cx, ground - 78}, {cx, ground - 30}, 9.0);   // torso+head blob
  fill_capsule(mask, {cx - 3, ground - 30}, {cx - 3, ground}, 5.0);  // legs
  fill_capsule(mask, {cx + 3, ground - 30}, {cx + 3, ground}, 5.0);
  for (int y = 0; y < frame.height(); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      if (mask.at(x, y)) frame.at(x, y) = {150, 160, 140};
    }
  }
  return frame;
}

/// D1 (extension), human detection under distractors. The paper's
/// component (1) is "human detection"; its extraction step keeps the
/// biggest blob, which breaks the moment anything person-sized shares the
/// studio (a second child waiting for their turn). A static distractor blob
/// is composited into every test frame, and pose accuracy with the
/// largest-component rule and with the blob tracker is compared against the
/// same frames without it, which is the default arm's evaluation. The model
/// is trained on clean clips.
void table_d1(Experiment& ex) {
  bench::print_header("D1  human detection under a distractor (extension)",
                      "Sec. 1 component (1): human detection; extractor ref [5] is a tracker");
  const Arm& arm = ex.arm();
  const pose::PoseDbnClassifier& classifier = arm.classifier;
  core::FramePipeline pipeline;
  std::size_t frames = 0;
  std::size_t correct_largest = 0, correct_tracked = 0;
  FrameWorkspace ws;
  core::FrameObservation obs_largest;
  core::FrameObservation obs_tracked;
  BinaryImage tracked_silhouette;
  for (const synth::Clip& clip : ex.dataset.test) {
    pipeline.set_background(clip.background);
    detect::TrackerConfig tracker_config;
    tracker_config.start_x_hint = 55.0;  // the take-off line of the station
    detect::BlobTracker tracker(tracker_config);
    core::GroundMonitor ground_largest, ground_tracked;
    auto state_largest = classifier.initial_state();
    auto state_tracked = classifier.initial_state();
    for (std::size_t i = 0; i < clip.frames.size(); ++i) {
      const RgbImage frame = with_distractor(clip.frames[i]);
      ++frames;

      pipeline.process_into(frame, ws, obs_largest);
      const auto r1 = classifier.classify(
          obs_largest.candidates, ground_largest.airborne(obs_largest.bottom_row),
          state_largest);
      correct_largest += r1.pose == clip.truth[i].pose ? 1 : 0;

      // The tracked arm: the extractor's silhouette, replaced by the hole-
      // filled tracked blob whenever the tracker measures one this frame.
      pipeline.extractor().extract_into(frame, ws, tracked_silhouette);
      const detect::TrackResult track = tracker.update(ws.smoothed);
      if (track.measured) {
        fill_holes_into(track.mask, ws.reached, ws.flood_stack, tracked_silhouette);
      }
      pipeline.process_silhouette_into(tracked_silhouette, ws, obs_tracked);
      const auto r2 = classifier.classify(
          obs_tracked.candidates, ground_tracked.airborne(obs_tracked.bottom_row),
          state_tracked);
      correct_tracked += r2.pose == clip.truth[i].pose ? 1 : 0;
    }
  }
  const std::size_t correct_clean = arm.eval.total_correct();

  bench::print_rule();
  std::printf("%-36s %-12s\n", "jumper selection", "pose accuracy");
  bench::print_rule();
  std::printf("%-36s %-12.1f\n", "largest component (paper Sec. 2)",
              100.0 * static_cast<double>(correct_largest) / frames);
  std::printf("%-36s %-12.1f\n", "blob tracker (component (1))",
              100.0 * static_cast<double>(correct_tracked) / frames);
  std::printf("%-36s %-12.1f\n", "largest component, no distractor",
              100.0 * static_cast<double>(correct_clean) / frames);
  bench::print_rule();
  std::printf("verdict vs no distractor (one test frame = %.2f pt):\n",
              100.0 / static_cast<double>(frames));
  // One verdict clause per arm: how many test frames the distractor costs it.
  const auto versus_clean = [&](const char* name, std::size_t correct) {
    const long change = static_cast<long>(correct) - static_cast<long>(correct_clean);
    int sign = 0;
    const std::string delta = accuracy_delta(change, frames, sign);
    std::printf("  %-34s %s\n", name, delta.c_str());
    char clause[96];
    if (sign == 0) {
      std::snprintf(clause, sizeof(clause), "holds the distractor-free accuracy");
    } else {
      std::snprintf(clause, sizeof(clause), "%s %ld test frames", sign < 0 ? "loses" : "gains",
                    sign < 0 ? -change : change);
    }
    return std::string(clause);
  };
  const std::string tracked = versus_clean("blob tracker", correct_tracked);
  const std::string largest = versus_clean("largest component", correct_largest);
  std::printf("with the distractor the tracker %s; the largest-component rule %s\n",
              tracked.c_str(), largest.c_str());
}

}  // namespace

int main() {
  Experiment ex;
  table_t1(ex);
  table_a1(ex);
  table_a2(ex);
  table_a3(ex);
  table_a4(ex);
  table_a5(ex);
  table_a6(ex);
  table_a7(ex);
  table_a9(ex);
  table_d1(ex);
  return 0;
}
