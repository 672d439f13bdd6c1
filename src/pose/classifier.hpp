// The pose DBN classifier (paper Sec. 4, Fig. 7).
//
// Observation model — one Bayesian network per pose, exactly the paper's
// arrangement ("several BNs are used to decide if a certain event
// happens"): root Pose node, five hidden part nodes, eight observed area
// nodes. With the body-part assignment fixed (the candidate labelling from
// skeleton_features), the per-pose posterior factorizes into
//     P(pose) * prod_part P(area(part) | pose)
// which is what `log_likelihood` evaluates. `build_pose_network` exports
// the full Fig.-7(a) network for structure dumps and exact-inference tests.
//
// Temporal model — the DBN layer (Fig. 7b): the current pose is also
// conditioned on the previous frame's predicted pose and on the jumping
// stage flag; stage transitions are monotone (before → jumping → air →
// landing), which encodes the paper's "before-jumping and landing poses
// cannot occur consecutively". StageTracker is the one rule that turns the
// measured flag into the stages a frame may reach. The classifier's own
// per-frame rule is the only live decoder; the filtering and Viterbi
// decoders in decoders.hpp are offline ablation decoders (kept for A7 and
// perfbench) and read the same tracker.
//
// Class imbalance — every pose except the dominant "standing & hands swung
// forward" must clear an acceptance threshold Th_Pose; frames where nothing
// clears it come back as Unknown, and the *most recently recognized* pose
// (not Unknown) feeds the next frame, the rule the paper reports as "really
// useful".
#pragma once

#include <iosfwd>
#include <utility>
#include <vector>

#include "bayes/network.hpp"
#include "pose/features.hpp"
#include "pose/pose_catalog.hpp"
#include "pose/skeleton_features.hpp"

namespace slj::pose {

enum class TemporalMode {
  kDbn,      ///< paper: previous pose + stage flag condition the current pose
  kStaticBn, ///< ablation: prior only, no temporal links (Fig. 7a alone)
};

/// The pose model's configuration. The settable values are the ones the
/// paper's experiments vary: the area partition (Sec. 6), Th_Pose, DBN vs
/// BN, the stage discipline and the Unknown-carry rule. The observation
/// and smoothing terms are the model's constants; retuning one is a model
/// change, not a setting.
struct ClassifierConfig {
  /// Laplace pseudo-count of the prior, part, area and flag CPTs.
  static constexpr double kLaplaceAlpha = 0.5;
  /// Smoothing for the temporal CPTs (pose transition / stage); it flattens
  /// the self-transition stickiness a frame-labelled corpus induces.
  static constexpr double kTransitionAlpha = 0.5;
  /// Weight of the observation terms relative to the temporal terms. It is
  /// 1, so the observation score enters unscaled; the model file still
  /// carries it.
  static constexpr double kLikelihoodWeight = 1.0;
  /// Weight of the area-occupancy evidence (the Fig.-7 observed Area
  /// nodes) inside the observation term.
  static constexpr double kOccupancyWeight = 0.3;
  /// The pose exempt from Th_Pose: the class-imbalance majority.
  static constexpr PoseId kDominantPose = PoseId::kStandHandsForward;
  /// P(a key point occupies an area no assigned part explains). Each
  /// unexplained occupied area multiplies a candidate's score by this, so
  /// labellings that ignore visible evidence lose to ones that explain it.
  static constexpr double kClutterEpsilon = 0.25;

  int num_areas = 8;
  /// Acceptance threshold on the normalized per-frame posterior; poses
  /// other than the dominant one must exceed it (paper's Th_Pose).
  double th_pose = 0.25;
  TemporalMode temporal = TemporalMode::kDbn;
  /// Stage discipline: the stage may stay or move forward (skips allowed,
  /// weighted by the learned stage CPT) but never backward — encoding the
  /// paper's "before-jumping and landing poses cannot occur consecutively".
  bool use_stage_constraint = true;
  /// Paper's Unknown rule: feed the most recently recognized pose forward
  /// instead of Unknown. Disable for the A5 ablation.
  bool carry_last_recognized = true;
};

/// The flag→stage rule: feed the measured airborne flag one frame at a
/// time; each push returns the [lowest, highest] stage that frame may reach.
/// Before flight the stage is at most "jumping"; during flight exactly "in
/// the air"; once flight has ended, exactly "landing" — permanently. A
/// spurious airborne flag after landing (bounce, segmentation noise) must
/// not reopen "in the air": with the monotone stage discipline that would
/// make every state unreachable.
class StageTracker {
 public:
  /// Consumes the next frame's measured flag; returns its stage bounds.
  std::pair<Stage, Stage> push(bool airborne);

  void reset() { *this = StageTracker(); }

 private:
  bool in_flight_ = false;
  bool flight_ended_ = false;
};

/// Per-frame classification output.
struct FrameResult {
  PoseId pose = PoseId::kUnknown;   ///< kUnknown when nothing clears Th_Pose
  PoseId best_pose = PoseId::kUnknown;  ///< argmax before thresholding
  double posterior = 0.0;           ///< normalized posterior of best_pose
  Stage stage = Stage::kBeforeJumping;
  int candidate_index = -1;         ///< which body-part labelling won
};

class PoseDbnClassifier {
 public:
  explicit PoseDbnClassifier(ClassifierConfig config = {});

  const ClassifierConfig& config() const { return config_; }
  const AreaEncoder& encoder() const { return encoder_; }

  // ---- training (Sec. 4.1) --------------------------------------------
  /// Accumulates one labelled frame. `prev` is the previous frame's label
  /// (kResetPose for the first frame of a clip). `airborne` is the measured
  /// jumping-stage flag for this frame: whether the silhouette's lowest
  /// point has left the calibrated ground line.
  void observe(PoseId pose, const FeatureCandidate& candidate, PoseId prev, Stage stage,
               bool airborne = false);

  /// Convenience: accumulates a whole labelled clip.
  void observe_sequence(const std::vector<std::pair<PoseId, FeatureCandidate>>& frames);

  /// Total labelled frames seen.
  double training_frames() const { return prior_.total_weight(); }

  // ---- inference (Sec. 4.2) --------------------------------------------
  struct SequenceState {
    PoseId prev = kResetPose;      ///< pose fed into the DBN as "previous"
    Stage stage = Stage::kBeforeJumping;
    bool prev_known = true;        ///< false after Unknown when carry rule is off
    StageTracker stages;           ///< the measured flags seen so far
  };

  SequenceState initial_state() const { return {}; }

  /// Classifies one frame given its candidate body-part labellings, the
  /// measured jumping-stage flag ("airborne") and the running sequence
  /// state; updates the state.
  FrameResult classify(const std::vector<FeatureCandidate>& candidates, bool airborne,
                       SequenceState& state) const;

  /// Classifies a full clip (state handled internally); `airborne` must be
  /// per-frame, same length as `clip`.
  std::vector<FrameResult> classify_sequence(
      const std::vector<std::vector<FeatureCandidate>>& clip,
      const std::vector<bool>& airborne) const;

  // ---- model internals (exposed for benches / tests) -------------------
  /// log P(part features | pose) under the per-pose observation BN (the
  /// hidden part nodes of Fig. 7a).
  double log_likelihood(PoseId pose, const FeatureVector& features) const;

  /// log P(part features, area occupancy | pose): the full Fig.-7(a)
  /// evidence, adding the eight observed Area nodes.
  double log_likelihood(PoseId pose, const FeatureCandidate& candidate) const;

  /// The observation term of one labelling under `pose`: log_likelihood
  /// plus log(kClutterEpsilon) per occupied area no part explains. The
  /// per-frame rule and the offline decoders both score evidence with it.
  double observation_score(PoseId pose, const FeatureCandidate& candidate) const;

  /// P(pose_t | pose_{t-1}, stage_t) from the learned transition CPT.
  double transition_prob(PoseId pose, PoseId prev, Stage stage) const;

  /// Learned marginal prior P(pose).
  double prior_prob(PoseId pose) const;

  /// P(stage_t | stage_{t-1}) from the learned stage CPT.
  double stage_prob(Stage to, Stage from) const;

  /// P(airborne flag | stage) from the learned flag CPT.
  double airborne_prob(bool airborne, Stage stage) const;

  /// Full Fig.-7(a) network for `pose`: root + 5 hidden parts + 8 (or n)
  /// observed area nodes with deterministic occupancy CPDs.
  bayes::Network build_pose_network(PoseId pose) const;

  /// Fig.-7(b) DBN slice structure (PreviousPose, Stage, Pose, parts, areas).
  bayes::Network build_dbn_slice() const;

  // ---- persistence ------------------------------------------------------
  /// Writes the trained model (config + all CPT counts) as versioned text.
  void save(std::ostream& out) const;

  /// Reads a model written by save(). Throws std::runtime_error on
  /// malformed input, a version mismatch or a config value out of range.
  /// The `config` line keeps its eleven tokens and the `tan` line is kept,
  /// both for format compatibility: the constant tokens (the alphas, the
  /// weights, the dominant pose, epsilon) must equal ClassifierConfig's
  /// constants, and every `tan` entry must be -1 (the paper's naive
  /// observation structure).
  static PoseDbnClassifier load(std::istream& in);

 private:
  double pose_score(PoseId pose, const FeatureCandidate& candidate, bool airborne,
                    const SequenceState& state, Stage stage_cap) const;

  ClassifierConfig config_;
  AreaEncoder encoder_;
  bayes::TabularCpd prior_;        ///< P(pose), no parents
  std::vector<bayes::TabularCpd> part_cpts_;  ///< per part: P(area | pose)
  std::vector<bayes::TabularCpd> area_cpts_;  ///< per area: P(occupied | pose)
  bayes::TabularCpd transition_;   ///< P(pose_t | pose_{t-1}, stage_t)
  bayes::TabularCpd stage_cpt_;    ///< P(stage_t | stage_{t-1})
  bayes::TabularCpd airborne_cpt_; ///< P(airborne flag | stage_t)
};

}  // namespace slj::pose
