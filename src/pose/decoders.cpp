#include "pose/decoders.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "bayes/viterbi.hpp"

namespace slj::pose {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Max over candidates of the classifier's observation score for a pose.
double best_emission(const PoseDbnClassifier& clf, PoseId pose,
                     const std::vector<FeatureCandidate>& candidates) {
  double best = kNegInf;
  for (const FeatureCandidate& c : candidates) {
    best = std::max(best, clf.observation_score(pose, c));
  }
  return best;
}

bool stage_in_bounds(Stage s, const std::pair<Stage, Stage>& bounds) {
  return index_of(s) >= index_of(bounds.first) && index_of(s) <= index_of(bounds.second);
}

/// Per-pose log-emission for one frame: observation score + airborne-flag
/// CPT, gated by the flag-implied stage bounds.
std::vector<double> frame_log_emission(const PoseDbnClassifier& clf,
                                       const std::vector<FeatureCandidate>& candidates,
                                       bool airborne, const std::pair<Stage, Stage>& bounds) {
  std::vector<double> emission(static_cast<std::size_t>(kPoseCount), kNegInf);
  for (int p = 0; p < kPoseCount; ++p) {
    const PoseId pose = static_cast<PoseId>(p);
    if (!stage_in_bounds(stage_of(pose), bounds)) continue;
    const double ap = clf.airborne_prob(airborne, stage_of(pose));
    double e = ap > 0.0 ? std::log(ap) : kNegInf;
    if (!candidates.empty()) e += best_emission(clf, pose, candidates);
    emission[static_cast<std::size_t>(p)] = e;
  }
  return emission;
}

// ---- OnlineForwardDecoder --------------------------------------------------

/// Time-invariant transition potentials P(pose_t | pose_{t-1}, stage_t) ·
/// P(stage_t | stage_{t-1}) with the "stages never regress" gate. The
/// per-frame flag bounds gate states through the emission instead, so one
/// fixed matrix serves the whole stream. Rows are potentials, not
/// distributions — ForwardFilter::from_potentials renormalizes globally.
std::vector<std::vector<double>> transition_potentials(const PoseDbnClassifier& clf) {
  std::vector<std::vector<double>> weights(
      static_cast<std::size_t>(kPoseCount),
      std::vector<double>(static_cast<std::size_t>(kPoseCount), 0.0));
  for (int from = 0; from < kPoseCount; ++from) {
    const PoseId pf = static_cast<PoseId>(from);
    const Stage sf = stage_of(pf);
    for (int to = 0; to < kPoseCount; ++to) {
      const PoseId pt = static_cast<PoseId>(to);
      const Stage st = stage_of(pt);
      if (index_of(st) < index_of(sf)) continue;  // stages never regress
      weights[static_cast<std::size_t>(from)][static_cast<std::size_t>(to)] =
          clf.transition_prob(pt, pf, st) * clf.stage_prob(st, sf);
    }
  }
  return weights;
}

std::vector<double> pose_prior(const PoseDbnClassifier& clf) {
  std::vector<double> prior(static_cast<std::size_t>(kPoseCount));
  for (int p = 0; p < kPoseCount; ++p) {
    prior[static_cast<std::size_t>(p)] = clf.prior_prob(static_cast<PoseId>(p));
  }
  return prior;
}

}  // namespace

OnlineForwardDecoder::OnlineForwardDecoder(const PoseDbnClassifier& classifier)
    : classifier_(&classifier),
      filter_(bayes::ForwardFilter::from_potentials(transition_potentials(classifier),
                                                    pose_prior(classifier))) {}

FrameResult OnlineForwardDecoder::push(const std::vector<FeatureCandidate>& candidates,
                                       bool airborne) {
  const auto bounds = stages_.push(airborne);
  return push_emission(frame_log_emission(*classifier_, candidates, airborne, bounds));
}

FrameResult OnlineForwardDecoder::push_emission(std::span<const double> log_emission) {
  // Frame 0 conditions the prior on evidence directly; later frames run a
  // full predict-update step.
  const std::vector<double>& belief =
      frames_ == 0 ? filter_.weight_log(log_emission) : filter_.step_log(log_emission);
  ++frames_;

  FrameResult r;
  const int map_state = filter_.map_state();
  r.pose = r.best_pose = static_cast<PoseId>(map_state);
  r.posterior = belief[static_cast<std::size_t>(map_state)];
  r.stage = stage_of(r.pose);
  return r;
}

void OnlineForwardDecoder::reset() {
  filter_.reset();
  stages_.reset();
  frames_ = 0;
}

// ---- whole-clip decoding ---------------------------------------------------

std::vector<FrameResult> decode_sequence(const PoseDbnClassifier& classifier,
                                         const std::vector<std::vector<FeatureCandidate>>& clip,
                                         const std::vector<bool>& airborne,
                                         SequenceDecoder decoder) {
  if (airborne.size() != clip.size()) {
    throw std::invalid_argument("airborne flags must match clip length");
  }
  if (decoder == SequenceDecoder::kOnline) {
    return classifier.classify_sequence(clip, airborne);
  }
  const int T = static_cast<int>(clip.size());
  std::vector<FrameResult> out(static_cast<std::size_t>(T));
  if (T == 0) return out;

  if (decoder == SequenceDecoder::kFiltering) {
    OnlineForwardDecoder online(classifier);
    for (int t = 0; t < T; ++t) {
      out[static_cast<std::size_t>(t)] =
          online.push(clip[static_cast<std::size_t>(t)], airborne[static_cast<std::size_t>(t)]);
    }
    return out;
  }

  // Viterbi: max-product over the whole clip.
  StageTracker stages;
  std::vector<std::pair<Stage, Stage>> bounds;
  std::vector<std::vector<double>> emission;
  bounds.reserve(static_cast<std::size_t>(T));
  emission.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const bool air = airborne[static_cast<std::size_t>(t)];
    bounds.push_back(stages.push(air));
    emission.push_back(
        frame_log_emission(classifier, clip[static_cast<std::size_t>(t)], air, bounds.back()));
  }

  const auto log_transition = [&](int t, int from, int to) {
    const PoseId pf = static_cast<PoseId>(from);
    const PoseId pt = static_cast<PoseId>(to);
    const Stage sf = stage_of(pf);
    const Stage st = stage_of(pt);
    if (index_of(st) < index_of(sf)) return kNegInf;  // stages never regress
    if (!stage_in_bounds(st, bounds[static_cast<std::size_t>(t)])) return kNegInf;
    const double trans = classifier.transition_prob(pt, pf, st);
    const double stage = classifier.stage_prob(st, sf);
    return (trans > 0.0 && stage > 0.0) ? std::log(trans) + std::log(stage) : kNegInf;
  };

  const auto path = bayes::viterbi_decode(
      kPoseCount, T,
      [&](int s) {
        const double p = classifier.prior_prob(static_cast<PoseId>(s));
        return p > 0.0 ? std::log(p) : kNegInf;
      },
      log_transition,
      [&](int t, int s) {
        return emission[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)];
      });

  // Per-frame confidence: the forward (filtering) marginal of the path
  // state, reusing the emission table built above. Viterbi itself commits
  // to one path; reporting 1.0 would make downstream fault evidence
  // fake-certain.
  OnlineForwardDecoder online(classifier);
  for (int t = 0; t < T; ++t) {
    online.push_emission(emission[static_cast<std::size_t>(t)]);
    FrameResult& r = out[static_cast<std::size_t>(t)];
    r.pose = r.best_pose = static_cast<PoseId>(path[static_cast<std::size_t>(t)]);
    r.stage = stage_of(r.pose);
    r.posterior = online.belief()[static_cast<std::size_t>(path[static_cast<std::size_t>(t)])];
  }
  return out;
}

}  // namespace slj::pose
