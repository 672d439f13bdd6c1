#include "pose/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

namespace slj::pose {
namespace {

constexpr double kLogFloor = -1e9;

}  // namespace

PoseDbnClassifier::PoseDbnClassifier(ClassifierConfig config)
    : config_(config),
      encoder_(config.num_areas),
      prior_(kPoseCount, {}, ClassifierConfig::kLaplaceAlpha),
      transition_(kPoseCount, {kPoseCount, kStageCount}, ClassifierConfig::kTransitionAlpha),
      stage_cpt_(kStageCount, {kStageCount}, ClassifierConfig::kTransitionAlpha),
      airborne_cpt_(2, {kStageCount}, ClassifierConfig::kLaplaceAlpha) {
  part_cpts_.reserve(kPartCount);
  for (int i = 0; i < kPartCount; ++i) {
    part_cpts_.emplace_back(encoder_.state_count(), std::vector<int>{kPoseCount},
                            ClassifierConfig::kLaplaceAlpha);
  }
  area_cpts_.reserve(static_cast<std::size_t>(encoder_.num_areas()));
  for (int k = 0; k < encoder_.num_areas(); ++k) {
    area_cpts_.emplace_back(2, std::vector<int>{kPoseCount}, ClassifierConfig::kLaplaceAlpha);
  }
}

void PoseDbnClassifier::observe(PoseId pose, const FeatureCandidate& candidate, PoseId prev,
                                Stage stage, bool airborne) {
  const int p = index_of(pose);
  const int pv = index_of(prev);
  const int st = index_of(stage);
  prior_.observe(p, {});
  const int parents[1] = {p};
  for (int i = 0; i < kPartCount; ++i) {
    part_cpts_[static_cast<std::size_t>(i)].observe(
        candidate.features.areas[static_cast<std::size_t>(i)], parents);
  }
  for (int k = 0; k < encoder_.num_areas(); ++k) {
    const int occupied =
        static_cast<std::size_t>(k) < candidate.occupancy.size() && candidate.occupancy[static_cast<std::size_t>(k)]
            ? 1
            : 0;
    area_cpts_[static_cast<std::size_t>(k)].observe(occupied, parents);
  }
  const int tparents[2] = {pv, st};
  transition_.observe(p, tparents);
  const int sparents[1] = {index_of(stage_of(prev))};
  stage_cpt_.observe(st, sparents);
  const int aparents[1] = {st};
  airborne_cpt_.observe(airborne ? 1 : 0, aparents);
}

double PoseDbnClassifier::log_likelihood(PoseId pose, const FeatureVector& features) const {
  const int parents[1] = {index_of(pose)};
  double ll = 0.0;
  for (int i = 0; i < kPartCount; ++i) {
    const double p = part_cpts_[static_cast<std::size_t>(i)].prob(
        features.areas[static_cast<std::size_t>(i)], parents);
    ll += p > 0.0 ? std::log(p) : kLogFloor;
  }
  return ll;
}

double PoseDbnClassifier::log_likelihood(PoseId pose, const FeatureCandidate& candidate) const {
  const int parents[1] = {index_of(pose)};
  double occ_ll = 0.0;
  for (int k = 0; k < encoder_.num_areas(); ++k) {
    const int occupied = static_cast<std::size_t>(k) < candidate.occupancy.size() &&
                                 candidate.occupancy[static_cast<std::size_t>(k)]
                             ? 1
                             : 0;
    const double p = area_cpts_[static_cast<std::size_t>(k)].prob(occupied, parents);
    occ_ll += p > 0.0 ? std::log(p) : kLogFloor;
  }
  return log_likelihood(pose, candidate.features) + ClassifierConfig::kOccupancyWeight * occ_ll;
}

double PoseDbnClassifier::observation_score(PoseId pose,
                                            const FeatureCandidate& candidate) const {
  return log_likelihood(pose, candidate) +
         candidate.unexplained_areas * std::log(ClassifierConfig::kClutterEpsilon);
}

double PoseDbnClassifier::transition_prob(PoseId pose, PoseId prev, Stage stage) const {
  const int parents[2] = {index_of(prev), index_of(stage)};
  return transition_.prob(index_of(pose), parents);
}

double PoseDbnClassifier::prior_prob(PoseId pose) const {
  return prior_.prob(index_of(pose), {});
}

double PoseDbnClassifier::stage_prob(Stage to, Stage from) const {
  const int parents[1] = {index_of(from)};
  return stage_cpt_.prob(index_of(to), parents);
}

double PoseDbnClassifier::airborne_prob(bool airborne, Stage stage) const {
  const int parents[1] = {index_of(stage)};
  return airborne_cpt_.prob(airborne ? 1 : 0, parents);
}

std::pair<Stage, Stage> StageTracker::push(bool airborne) {
  if (airborne && !flight_ended_) {
    in_flight_ = true;
  } else if (in_flight_) {
    in_flight_ = false;
    flight_ended_ = true;
  }
  if (in_flight_) return {Stage::kInTheAir, Stage::kInTheAir};
  if (flight_ended_) return {Stage::kLanding, Stage::kLanding};
  return {Stage::kBeforeJumping, Stage::kJumping};
}

double PoseDbnClassifier::pose_score(PoseId pose, const FeatureCandidate& candidate,
                                     bool airborne, const SequenceState& state,
                                     Stage stage_cap) const {
  const Stage pose_stage = stage_of(pose);
  double score = 0.0;
  if (config_.use_stage_constraint && config_.temporal == TemporalMode::kDbn) {
    // Stages never regress, and the measured flight flag gates the upper
    // stages: "in the air" opens only while airborne and "landing" only
    // after flight — a single bad take-off prediction can no longer drag
    // the whole clip into landing.
    if (index_of(pose_stage) < index_of(state.stage)) return kLogFloor;
    if (index_of(pose_stage) > index_of(stage_cap)) return kLogFloor;
    const double sp = stage_prob(pose_stage, state.stage);
    score += sp > 0.0 ? std::log(sp) : kLogFloor;
  }
  // The measured jumping-stage flag: P(airborne | stage of this pose).
  const double ap = airborne_prob(airborne, pose_stage);
  score += ap > 0.0 ? std::log(ap) : kLogFloor;
  double temporal;
  if (config_.temporal == TemporalMode::kStaticBn || !state.prev_known) {
    temporal = prior_prob(pose);
  } else {
    temporal = transition_prob(pose, state.prev, pose_stage);
  }
  score += temporal > 0.0 ? std::log(temporal) : kLogFloor;
  score += observation_score(pose, candidate);
  return score;
}

FrameResult PoseDbnClassifier::classify(const std::vector<FeatureCandidate>& candidates,
                                        bool airborne, SequenceState& state) const {
  // Advance the jumping stage from the measured flag first (StageTracker):
  // the stage is raised to the frame's lowest reachable stage and capped at
  // its highest, so air/landing poses are unreachable until flight has
  // actually been observed.
  Stage stage_cap = Stage::kLanding;
  if (config_.use_stage_constraint && config_.temporal == TemporalMode::kDbn) {
    const auto [lowest, highest] = state.stages.push(airborne);
    if (index_of(state.stage) < index_of(lowest)) state.stage = lowest;
    stage_cap = highest;
  }

  FrameResult result;
  result.stage = state.stage;
  if (candidates.empty()) {
    // No skeleton evidence at all: Unknown frame.
    if (!config_.carry_last_recognized) state.prev_known = false;
    return result;
  }

  double best_score = -std::numeric_limits<double>::infinity();
  int best_candidate = -1;
  PoseId best_pose = PoseId::kUnknown;
  std::vector<double> best_posteriors;

  std::vector<double> scores(static_cast<std::size_t>(kPoseCount));
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    double cand_best = -std::numeric_limits<double>::infinity();
    int cand_best_pose = -1;
    for (int p = 0; p < kPoseCount; ++p) {
      const double s =
          pose_score(static_cast<PoseId>(p), candidates[ci], airborne, state, stage_cap);
      scores[static_cast<std::size_t>(p)] = s;
      if (s > cand_best) {
        cand_best = s;
        cand_best_pose = p;
      }
    }
    if (cand_best <= kLogFloor || cand_best_pose < 0) continue;
    if (cand_best > best_score) {
      best_score = cand_best;
      best_candidate = static_cast<int>(ci);
      best_pose = static_cast<PoseId>(cand_best_pose);
      // Normalized posterior over poses for this candidate (log-sum-exp).
      double total = 0.0;
      for (const double s : scores) total += std::exp(s - cand_best);
      best_posteriors.resize(scores.size());
      for (std::size_t p = 0; p < scores.size(); ++p) {
        best_posteriors[p] = std::exp(scores[p] - cand_best) / total;
      }
    }
  }

  result.best_pose = best_pose;
  result.candidate_index = best_candidate;

  // The paper's Th_Pose rule: the dominant pose would otherwise "dominate
  // the decision making", so any non-dominant pose whose posterior clears
  // Th_Pose is said to appear and is preferred over the dominant pose.
  PoseId accepted_pose = PoseId::kUnknown;
  double accepted_posterior = 0.0;
  if (best_pose != PoseId::kUnknown) {
    const int dom = index_of(ClassifierConfig::kDominantPose);
    int best_clearing = -1;
    for (int p = 0; p < kPoseCount; ++p) {
      if (p == dom) continue;
      const double post = best_posteriors[static_cast<std::size_t>(p)];
      if (post > config_.th_pose &&
          (best_clearing < 0 || post > best_posteriors[static_cast<std::size_t>(best_clearing)])) {
        best_clearing = p;
      }
    }
    if (best_clearing >= 0) {
      accepted_pose = static_cast<PoseId>(best_clearing);
      accepted_posterior = best_posteriors[static_cast<std::size_t>(best_clearing)];
    } else if (best_pose == ClassifierConfig::kDominantPose) {
      accepted_pose = best_pose;
      accepted_posterior = best_posteriors[static_cast<std::size_t>(dom)];
    }
  }
  result.posterior = accepted_posterior;

  const bool accepted = accepted_pose != PoseId::kUnknown;
  if (accepted) result.best_pose = best_pose;  // keep raw argmax for diagnostics
  best_pose = accepted_pose;

  if (accepted) {
    result.pose = best_pose;
    result.stage = stage_of(best_pose);
    state.prev = best_pose;
    state.prev_known = true;
    state.stage = result.stage;
  } else {
    result.pose = PoseId::kUnknown;
    // Paper's rule: keep the most recently recognized pose as "previous";
    // the ablation switch instead marks the previous pose as unknown.
    if (!config_.carry_last_recognized) state.prev_known = false;
  }
  return result;
}

std::vector<FrameResult> PoseDbnClassifier::classify_sequence(
    const std::vector<std::vector<FeatureCandidate>>& clip,
    const std::vector<bool>& airborne) const {
  if (airborne.size() != clip.size()) {
    throw std::invalid_argument("airborne flags must match clip length");
  }
  SequenceState state = initial_state();
  std::vector<FrameResult> out;
  out.reserve(clip.size());
  for (std::size_t i = 0; i < clip.size(); ++i) {
    out.push_back(classify(clip[i], airborne[i], state));
  }
  return out;
}

namespace {

/// P(area-state | pose) for one part: a row of its CPT.
std::vector<double> part_marginal(const bayes::TabularCpd& cpt, int pose, int states) {
  const int parents[1] = {pose};
  std::vector<double> out(static_cast<std::size_t>(states));
  for (int s = 0; s < states; ++s) out[static_cast<std::size_t>(s)] = cpt.prob(s, parents);
  return out;
}

}  // namespace

bayes::Network PoseDbnClassifier::build_pose_network(PoseId pose) const {
  bayes::Network net;
  // Root: binary "is this the pose" node with prior from the learned
  // marginal.
  const double p_pose = prior_prob(pose);
  auto root_cpd = std::make_shared<bayes::FixedCpd>(
      2, std::vector<int>{}, std::vector<double>{1.0 - p_pose, p_pose});
  const int root = net.add_node("Pose:" + std::string(pose_name(pose)), 2, {}, root_cpd);

  // Hidden part nodes: P(area-state | root). Row 0 ("other poses") averages
  // the remaining poses' CPTs weighted by their priors.
  const int states = encoder_.state_count();
  std::vector<int> part_ids;
  for (int i = 0; i < kPartCount; ++i) {
    std::vector<double> table(static_cast<std::size_t>(2 * states), 0.0);
    double other_total = 0.0;
    std::vector<double> other(static_cast<std::size_t>(states), 0.0);
    for (int q = 0; q < kPoseCount; ++q) {
      if (q == index_of(pose)) continue;
      const double w = prior_prob(static_cast<PoseId>(q));
      other_total += w;
      const std::vector<double> marg =
          part_marginal(part_cpts_[static_cast<std::size_t>(i)], q, states);
      for (int s = 0; s < states; ++s) {
        other[static_cast<std::size_t>(s)] += w * marg[static_cast<std::size_t>(s)];
      }
    }
    const std::vector<double> self =
        part_marginal(part_cpts_[static_cast<std::size_t>(i)], index_of(pose), states);
    for (int s = 0; s < states; ++s) {
      table[static_cast<std::size_t>(s)] =
          other_total > 0.0 ? other[static_cast<std::size_t>(s)] / other_total : 1.0 / states;
      table[static_cast<std::size_t>(states + s)] = self[static_cast<std::size_t>(s)];
    }
    auto cpd = std::make_shared<bayes::FixedCpd>(states, std::vector<int>{2}, std::move(table));
    part_ids.push_back(net.add_node(std::string(part_name(static_cast<Part>(i))), states,
                                    {root}, std::move(cpd)));
  }

  // Observed area nodes: Area_k = 1 iff some part's state equals k.
  std::vector<int> part_cards(static_cast<std::size_t>(kPartCount), states);
  for (int k = 0; k < encoder_.num_areas(); ++k) {
    auto fn = [k](std::span<const int> parts) {
      for (const int s : parts) {
        if (s == k) return 1;
      }
      return 0;
    };
    auto cpd = std::make_shared<bayes::DeterministicCpd>(2, part_cards, fn);
    net.add_node("Area " + encoder_.state_label(k), 2, part_ids, std::move(cpd));
  }
  return net;
}

bayes::Network PoseDbnClassifier::build_dbn_slice() const {
  bayes::Network net;
  // Previous pose: learned marginal as its prior.
  std::vector<double> prior_table(static_cast<std::size_t>(kPoseCount));
  for (int p = 0; p < kPoseCount; ++p) {
    prior_table[static_cast<std::size_t>(p)] = prior_prob(static_cast<PoseId>(p));
  }
  // Normalize defensively (Laplace smoothing keeps it near 1 already).
  double sum = 0.0;
  for (const double v : prior_table) sum += v;
  for (double& v : prior_table) v /= sum;
  auto prev_cpd =
      std::make_shared<bayes::FixedCpd>(kPoseCount, std::vector<int>{}, prior_table);
  const int prev = net.add_node("PreviousPose", kPoseCount, {}, std::move(prev_cpd));

  // Stage flag conditioned on the previous pose's stage.
  std::vector<double> stage_table(static_cast<std::size_t>(kPoseCount * kStageCount));
  for (int p = 0; p < kPoseCount; ++p) {
    const int sp[1] = {index_of(stage_of(static_cast<PoseId>(p)))};
    for (int s = 0; s < kStageCount; ++s) {
      stage_table[static_cast<std::size_t>(p * kStageCount + s)] = stage_cpt_.prob(s, sp);
    }
  }
  auto stage_cpd = std::make_shared<bayes::FixedCpd>(kStageCount, std::vector<int>{kPoseCount},
                                                     std::move(stage_table));
  const int stage = net.add_node("JumpingStage", kStageCount, {prev}, std::move(stage_cpd));

  // Current pose conditioned on previous pose and stage (the learned
  // transition CPT, exported as a fixed table).
  std::vector<double> trans_table(
      static_cast<std::size_t>(kPoseCount) * kStageCount * kPoseCount);
  for (int pv = 0; pv < kPoseCount; ++pv) {
    for (int s = 0; s < kStageCount; ++s) {
      const int parents[2] = {pv, s};
      for (int p = 0; p < kPoseCount; ++p) {
        trans_table[(static_cast<std::size_t>(pv) * kStageCount + static_cast<std::size_t>(s)) *
                        kPoseCount +
                    static_cast<std::size_t>(p)] = transition_.prob(p, parents);
      }
    }
  }
  auto pose_cpd = std::make_shared<bayes::FixedCpd>(
      kPoseCount, std::vector<int>{kPoseCount, kStageCount}, std::move(trans_table));
  const int pose_node =
      net.add_node("Pose", kPoseCount, {prev, stage}, std::move(pose_cpd));

  // Part nodes hanging off the current pose.
  const int states = encoder_.state_count();
  std::vector<int> part_ids;
  for (int i = 0; i < kPartCount; ++i) {
    std::vector<double> table(static_cast<std::size_t>(kPoseCount * states));
    for (int p = 0; p < kPoseCount; ++p) {
      const std::vector<double> marg =
          part_marginal(part_cpts_[static_cast<std::size_t>(i)], p, states);
      for (int s = 0; s < states; ++s) {
        table[static_cast<std::size_t>(p * states + s)] = marg[static_cast<std::size_t>(s)];
      }
    }
    auto cpd = std::make_shared<bayes::FixedCpd>(states, std::vector<int>{kPoseCount},
                                                 std::move(table));
    part_ids.push_back(net.add_node(std::string(part_name(static_cast<Part>(i))), states,
                                    {pose_node}, std::move(cpd)));
  }

  std::vector<int> part_cards(static_cast<std::size_t>(kPartCount), states);
  for (int k = 0; k < encoder_.num_areas(); ++k) {
    auto fn = [k](std::span<const int> parts) {
      for (const int s : parts) {
        if (s == k) return 1;
      }
      return 0;
    };
    auto cpd = std::make_shared<bayes::DeterministicCpd>(2, part_cards, fn);
    net.add_node("Area " + encoder_.state_label(k), 2, part_ids, std::move(cpd));
  }
  return net;
}

}  // namespace slj::pose

namespace slj::pose {
namespace {

constexpr const char* kModelMagic = "slj-pose-model";
constexpr int kModelVersion = 1;
/// Largest area count a model file may ask for (one area per degree): it
/// sizes every part and area CPT, so it is bounded before any allocation.
constexpr int kMaxModelAreas = 360;

void write_counts(std::ostream& out, const char* tag, const bayes::TabularCpd& cpd) {
  out << tag << ' ' << cpd.raw_counts().size();
  // max_digits10 keeps the round-trip exact for weighted counts.
  const auto old_precision = out.precision(17);
  for (const double c : cpd.raw_counts()) out << ' ' << c;
  out.precision(old_precision);
  out << '\n';
}

void read_counts(std::istream& in, const char* tag, bayes::TabularCpd& cpd) {
  std::string seen;
  std::size_t n = 0;
  if (!(in >> seen >> n) || seen != tag) {
    throw std::runtime_error("model load: expected section '" + std::string(tag) + "'");
  }
  if (n != cpd.raw_counts().size()) {
    throw std::runtime_error("model load: section '" + std::string(tag) + "' size mismatch");
  }
  std::vector<double> counts(n);
  for (double& c : counts) {
    if (!(in >> c)) throw std::runtime_error("model load: truncated counts");
  }
  cpd.load_counts(std::move(counts));
}

}  // namespace

void PoseDbnClassifier::save(std::ostream& out) const {
  out << kModelMagic << ' ' << kModelVersion << '\n';
  const auto old_precision = out.precision(17);
  out << "config " << config_.num_areas << ' ' << ClassifierConfig::kLaplaceAlpha << ' '
      << ClassifierConfig::kTransitionAlpha << ' ' << ClassifierConfig::kLikelihoodWeight << ' '
      << ClassifierConfig::kOccupancyWeight << ' ' << config_.th_pose << ' '
      << index_of(ClassifierConfig::kDominantPose) << ' ' << static_cast<int>(config_.temporal)
      << ' ' << ClassifierConfig::kClutterEpsilon << ' '
      << (config_.use_stage_constraint ? 1 : 0) << ' '
      << (config_.carry_last_recognized ? 1 : 0) << '\n';
  out.precision(old_precision);
  // The naive part structure, written as "no extra parent" per part.
  out << "tan";
  for (int i = 0; i < kPartCount; ++i) out << " -1";
  out << '\n';
  write_counts(out, "prior", prior_);
  for (int i = 0; i < kPartCount; ++i) {
    write_counts(out, "part", part_cpts_[static_cast<std::size_t>(i)]);
  }
  for (int k = 0; k < encoder_.num_areas(); ++k) {
    write_counts(out, "area", area_cpts_[static_cast<std::size_t>(k)]);
  }
  write_counts(out, "transition", transition_);
  write_counts(out, "stage", stage_cpt_);
  write_counts(out, "airborne", airborne_cpt_);
  if (!out) throw std::runtime_error("model save: write failure");
}

PoseDbnClassifier PoseDbnClassifier::load(std::istream& in) {
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kModelMagic) {
    throw std::runtime_error("model load: not a slj-pose-model file");
  }
  if (version != kModelVersion) {
    throw std::runtime_error("model load: unsupported version " + std::to_string(version));
  }
  std::string tag;
  ClassifierConfig cfg;
  double laplace_alpha = 0.0, transition_alpha = 0.0, likelihood_weight = 0.0;
  double occupancy_weight = 0.0, clutter_epsilon = 0.0;
  int dominant = 0, temporal = 0, stage_constraint = 1, carry = 1;
  if (!(in >> tag >> cfg.num_areas >> laplace_alpha >> transition_alpha >> likelihood_weight >>
        occupancy_weight >> cfg.th_pose >> dominant >> temporal >> clutter_epsilon >>
        stage_constraint >> carry) ||
      tag != "config") {
    throw std::runtime_error("model load: malformed config line");
  }
  // Every field is range-checked before it reaches a constructor or a cast,
  // so a malformed config is a load error, not a foreign exception or an
  // undefined mode. The constant tokens must be the model's constants: a
  // file trained with other values is a different model.
  if (cfg.num_areas < 2 || cfg.num_areas > kMaxModelAreas) {
    throw std::runtime_error("model load: invalid area count");
  }
  if (laplace_alpha != ClassifierConfig::kLaplaceAlpha ||
      transition_alpha != ClassifierConfig::kTransitionAlpha ||
      likelihood_weight != ClassifierConfig::kLikelihoodWeight ||
      occupancy_weight != ClassifierConfig::kOccupancyWeight ||
      dominant != index_of(ClassifierConfig::kDominantPose) ||
      clutter_epsilon != ClassifierConfig::kClutterEpsilon) {
    throw std::runtime_error("model load: config constants differ from this model's");
  }
  if (!(cfg.th_pose >= 0.0 && cfg.th_pose <= 1.0)) {
    throw std::runtime_error("model load: Th_Pose outside [0, 1]");
  }
  if (temporal != static_cast<int>(TemporalMode::kDbn) &&
      temporal != static_cast<int>(TemporalMode::kStaticBn)) {
    throw std::runtime_error("model load: invalid temporal mode");
  }
  cfg.temporal = static_cast<TemporalMode>(temporal);
  cfg.use_stage_constraint = stage_constraint != 0;
  cfg.carry_last_recognized = carry != 0;

  PoseDbnClassifier clf(cfg);
  // The structure is fixed (naive parts), still written for format
  // compatibility; any other value is a corrupt model.
  if (!(in >> tag) || tag != "tan") {
    throw std::runtime_error("model load: missing tan line");
  }
  for (int i = 0; i < kPartCount; ++i) {
    int parent = 0;
    if (!(in >> parent)) throw std::runtime_error("model load: truncated tan line");
    if (parent != -1) throw std::runtime_error("model load: invalid tan parent");
  }
  read_counts(in, "prior", clf.prior_);
  for (int i = 0; i < kPartCount; ++i) {
    read_counts(in, "part", clf.part_cpts_[static_cast<std::size_t>(i)]);
  }
  for (int k = 0; k < clf.encoder_.num_areas(); ++k) {
    read_counts(in, "area", clf.area_cpts_[static_cast<std::size_t>(k)]);
  }
  read_counts(in, "transition", clf.transition_);
  read_counts(in, "stage", clf.stage_cpt_);
  read_counts(in, "airborne", clf.airborne_cpt_);
  return clf;
}

}  // namespace slj::pose
