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
// measured flag into the stages a frame may reach; the classifier and both
// sequence decoders (decoders.hpp) read it.
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

struct ClassifierConfig {
  int num_areas = 8;
  double laplace_alpha = 0.5;
  /// Smoothing for the temporal CPTs (pose transition / stage). Larger
  /// values flatten the transition model, countering the self-transition
  /// stickiness a frame-labelled corpus induces.
  double transition_alpha = 0.5;
  /// Weight of the observation terms (part likelihood + clutter) relative
  /// to the temporal terms — the usual HMM observation-scaling knob.
  double likelihood_weight = 1.0;
  /// Weight of the area-occupancy evidence (the Fig.-7 observed Area
  /// nodes) inside the observation term. 0 disables it.
  double occupancy_weight = 0.3;
  /// Acceptance threshold on the normalized per-frame posterior; poses
  /// other than the dominant one must exceed it (paper's Th_Pose).
  double th_pose = 0.25;
  PoseId dominant_pose = PoseId::kStandHandsForward;
  TemporalMode temporal = TemporalMode::kDbn;
  /// P(a key point occupies an area no assigned part explains). Each
  /// unexplained occupied area multiplies a candidate's score by this, so
  /// labellings that ignore visible evidence lose to ones that explain it.
  double clutter_epsilon = 0.25;
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
  ClassifierConfig& mutable_config() { return config_; }
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

  // ---- qualitative training (structure) ---------------------------------
  /// Installs a TAN structure over the part features: `parents[i]` is the
  /// extra part-feature parent of part i (-1 = class parent only, the
  /// paper's hand-fixed structure). Must be called before any observe();
  /// resets the part CPTs. Learn the structure with
  /// bayes::learn_tan_structure over (pose, features) samples.
  void set_tan_structure(const std::vector<int>& parents);

  /// Current TAN parents (-1 everywhere for the naive structure).
  const std::vector<int>& tan_structure() const { return tan_parents_; }

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

  /// P(pose_t | pose_{t-1}, stage_t) from the learned transition CPT.
  double transition_prob(PoseId pose, PoseId prev, Stage stage) const;

  /// Learned marginal prior P(pose).
  double prior_prob(PoseId pose) const;

  /// Full Fig.-7(a) network for `pose`: root + 5 hidden parts + 8 (or n)
  /// observed area nodes with deterministic occupancy CPDs.
  bayes::Network build_pose_network(PoseId pose) const;

  /// Fig.-7(b) DBN slice structure (PreviousPose, Stage, Pose, parts, areas).
  bayes::Network build_dbn_slice() const;

  // ---- persistence ------------------------------------------------------
  /// Writes the trained model (config + all CPT counts) as versioned text.
  void save(std::ostream& out) const;

  /// Reads a model written by save(). Throws std::runtime_error on
  /// malformed input or version mismatch.
  static PoseDbnClassifier load(std::istream& in);

 private:
  double pose_score(PoseId pose, const FeatureCandidate& candidate, bool airborne,
                    const SequenceState& state, Stage stage_cap) const;

 public:
  /// P(stage_t | stage_{t-1}) from the learned stage CPT.
  double stage_prob(Stage to, Stage from) const;

  /// P(airborne flag | stage) from the learned flag CPT.
  double airborne_prob(bool airborne, Stage stage) const;

 private:

  ClassifierConfig config_;
  AreaEncoder encoder_;
  std::vector<int> tan_parents_;   ///< extra feature parent per part (-1 = none)
  bayes::TabularCpd prior_;        ///< P(pose), no parents
  /// Per part: P(area | pose) or, with TAN, P(area | pose, parent area).
  std::vector<bayes::TabularCpd> part_cpts_;
  std::vector<bayes::TabularCpd> area_cpts_;  ///< per area: P(occupied | pose)
  bayes::TabularCpd transition_;   ///< P(pose_t | pose_{t-1}, stage_t)
  bayes::TabularCpd stage_cpt_;    ///< P(stage_t | stage_{t-1})
  bayes::TabularCpd airborne_cpt_; ///< P(airborne flag | stage_t)
};

}  // namespace slj::pose
