#include "pose/classifier.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace slj::pose {
namespace {

/// Builds a candidate whose parts sit in the given areas (occupancy derived
/// from the part areas).
FeatureCandidate make_candidate(const AreaEncoder& enc, int head, int chest, int hand, int knee,
                                int foot) {
  FeatureCandidate c;
  c.features[Part::kHead] = head;
  c.features[Part::kChest] = chest;
  c.features[Part::kHand] = hand;
  c.features[Part::kKnee] = knee;
  c.features[Part::kFoot] = foot;
  for (int i = 0; i < kPartCount; ++i) c.nodes[static_cast<std::size_t>(i)] = i;  // all assigned
  c.occupancy.assign(static_cast<std::size_t>(enc.num_areas()), 0);
  for (const int a : c.features.areas) {
    if (a < enc.num_areas()) c.occupancy[static_cast<std::size_t>(a)] = 1;
  }
  return c;
}

/// Trains a classifier on two synthetic poses with distinct hand areas:
/// "standing & hands swung forward" (hand ahead = 0) vs "standing & hands
/// swung backward" (hand behind = 4). Each of the 20 clips is five frames of
/// each pose, observed grounded under the previous frame's pose's stage.
PoseDbnClassifier trained_two_pose(ClassifierConfig cfg = {}) {
  PoseDbnClassifier clf(cfg);
  const AreaEncoder& enc = clf.encoder();
  const FeatureCandidate fwd = make_candidate(enc, 2, 2, 0, 6, 6);
  const FeatureCandidate back = make_candidate(enc, 2, 2, 4, 6, 6);
  for (int rep = 0; rep < 20; ++rep) {
    PoseId prev = kResetPose;
    Stage stage = Stage::kBeforeJumping;
    for (int i = 0; i < 10; ++i) {
      const PoseId pose = i < 5 ? PoseId::kStandHandsForward : PoseId::kStandHandsBackward;
      clf.observe(pose, i < 5 ? fwd : back, prev, stage);
      prev = pose;
      stage = stage_of(pose);
    }
  }
  return clf;
}

TEST(Classifier, ConfigMismatchChecksNothingHere) {
  // Smoke: construction with non-default areas works.
  ClassifierConfig cfg;
  cfg.num_areas = 12;
  PoseDbnClassifier clf(cfg);
  EXPECT_EQ(clf.encoder().num_areas(), 12);
}

TEST(Classifier, LikelihoodFavoursTrainedFeatureVector) {
  const PoseDbnClassifier clf = trained_two_pose();
  const AreaEncoder& enc = clf.encoder();
  const FeatureCandidate fwd = make_candidate(enc, 2, 2, 0, 6, 6);
  EXPECT_GT(clf.log_likelihood(PoseId::kStandHandsForward, fwd),
            clf.log_likelihood(PoseId::kStandHandsBackward, fwd));
}

TEST(Classifier, PriorReflectsTrainingFrequencies) {
  const PoseDbnClassifier clf = trained_two_pose();
  EXPECT_NEAR(clf.prior_prob(PoseId::kStandHandsForward),
              clf.prior_prob(PoseId::kStandHandsBackward), 1e-9);
  EXPECT_GT(clf.prior_prob(PoseId::kStandHandsForward),
            clf.prior_prob(PoseId::kAirTuckHandsForward));
  EXPECT_DOUBLE_EQ(clf.training_frames(), 200.0);
}

TEST(Classifier, TransitionLearnsSelfLoopAndSwitch) {
  const PoseDbnClassifier clf = trained_two_pose();
  const double self_loop = clf.transition_prob(
      PoseId::kStandHandsForward, PoseId::kStandHandsForward, Stage::kBeforeJumping);
  const double cross = clf.transition_prob(
      PoseId::kAirTuckHandsForward, PoseId::kStandHandsForward, Stage::kBeforeJumping);
  EXPECT_GT(self_loop, 0.4);
  EXPECT_LT(cross, 0.05);
}

TEST(Classifier, ClassifiesTrainedPoses) {
  const PoseDbnClassifier clf = trained_two_pose();
  const AreaEncoder& enc = clf.encoder();
  auto state = clf.initial_state();
  const FrameResult r1 =
      clf.classify({make_candidate(enc, 2, 2, 0, 6, 6)}, false, state);
  EXPECT_EQ(r1.pose, PoseId::kStandHandsForward);
  const FrameResult r2 =
      clf.classify({make_candidate(enc, 2, 2, 4, 6, 6)}, false, state);
  EXPECT_EQ(r2.pose, PoseId::kStandHandsBackward);
}

TEST(Classifier, EmptyCandidatesGiveUnknown) {
  const PoseDbnClassifier clf = trained_two_pose();
  auto state = clf.initial_state();
  const FrameResult r = clf.classify({}, false, state);
  EXPECT_EQ(r.pose, PoseId::kUnknown);
}

TEST(Classifier, UnknownCarriesLastRecognizedPose) {
  ClassifierConfig cfg;
  cfg.carry_last_recognized = true;
  PoseDbnClassifier clf = trained_two_pose(cfg);
  auto state = clf.initial_state();
  clf.classify({make_candidate(clf.encoder(), 2, 2, 4, 6, 6)}, false, state);
  EXPECT_EQ(state.prev, PoseId::kStandHandsBackward);
  clf.classify({}, false, state);  // Unknown frame
  EXPECT_EQ(state.prev, PoseId::kStandHandsBackward);  // carried
  EXPECT_TRUE(state.prev_known);
}

TEST(Classifier, UnknownWithoutCarryMarksPrevUnknown) {
  ClassifierConfig cfg;
  cfg.carry_last_recognized = false;
  PoseDbnClassifier clf = trained_two_pose(cfg);
  auto state = clf.initial_state();
  clf.classify({}, false, state);
  EXPECT_FALSE(state.prev_known);
}

TEST(Classifier, StageNeverRegressesAndFlagGatesAir) {
  const PoseDbnClassifier clf = trained_two_pose();
  auto state = clf.initial_state();
  EXPECT_EQ(state.stage, Stage::kBeforeJumping);
  // Airborne observation forces the stage to "in the air".
  clf.classify({make_candidate(clf.encoder(), 2, 2, 0, 6, 6)}, true, state);
  EXPECT_EQ(state.stage, Stage::kInTheAir);
  // The state's tracker has seen the flight: only landing stays reachable.
  StageTracker after = state.stages;
  EXPECT_EQ(after.push(false), (std::pair{Stage::kLanding, Stage::kLanding}));
  // Grounded after flight → landing.
  clf.classify({make_candidate(clf.encoder(), 2, 2, 0, 6, 6)}, false, state);
  EXPECT_EQ(state.stage, Stage::kLanding);
}

TEST(Classifier, StaticBnModeIgnoresTemporalState) {
  ClassifierConfig cfg;
  cfg.temporal = TemporalMode::kStaticBn;
  PoseDbnClassifier clf = trained_two_pose(cfg);
  const AreaEncoder& enc = clf.encoder();
  // Run the BACKWARD pose first; with no temporal links the forward pose
  // still wins immediately afterwards on its own evidence.
  auto state = clf.initial_state();
  clf.classify({make_candidate(enc, 2, 2, 4, 6, 6)}, false, state);
  const FrameResult r = clf.classify({make_candidate(enc, 2, 2, 0, 6, 6)}, false, state);
  EXPECT_EQ(r.pose, PoseId::kStandHandsForward);
}

TEST(Classifier, SequenceClassificationMatchesStepwise) {
  const PoseDbnClassifier clf = trained_two_pose();
  const AreaEncoder& enc = clf.encoder();
  std::vector<std::vector<FeatureCandidate>> clip{
      {make_candidate(enc, 2, 2, 0, 6, 6)},
      {make_candidate(enc, 2, 2, 0, 6, 6)},
      {make_candidate(enc, 2, 2, 4, 6, 6)},
  };
  const std::vector<bool> airborne{false, false, false};
  const auto seq = clf.classify_sequence(clip, airborne);
  ASSERT_EQ(seq.size(), 3u);
  auto state = clf.initial_state();
  for (std::size_t i = 0; i < clip.size(); ++i) {
    const FrameResult r = clf.classify(clip[i], airborne[i], state);
    EXPECT_EQ(seq[i].pose, r.pose);
  }
}

TEST(Classifier, SequenceLengthMismatchThrows) {
  const PoseDbnClassifier clf = trained_two_pose();
  EXPECT_THROW(clf.classify_sequence({{}, {}}, {false}), std::invalid_argument);
}

TEST(Classifier, AirborneCptLearnsFlagDistribution) {
  PoseDbnClassifier clf;
  const FeatureCandidate c = make_candidate(clf.encoder(), 2, 2, 0, 6, 6);
  for (int i = 0; i < 10; ++i) {
    clf.observe(PoseId::kAirTuckHandsForward, c, PoseId::kAirTuckHandsForward,
                Stage::kInTheAir, true);
    clf.observe(PoseId::kStandHandsForward, c, PoseId::kStandHandsForward,
                Stage::kBeforeJumping, false);
  }
  EXPECT_GT(clf.airborne_prob(true, Stage::kInTheAir), 0.8);
  EXPECT_GT(clf.airborne_prob(false, Stage::kBeforeJumping), 0.8);
}

TEST(Classifier, ThPoseRulePrefersRareClearingPoseOverDominant) {
  // Train heavily imbalanced: dominant appears 10x more often than the
  // rare pose, with only mildly different features.
  ClassifierConfig cfg;
  cfg.th_pose = 0.25;
  PoseDbnClassifier clf(cfg);
  const AreaEncoder& enc = clf.encoder();
  const FeatureCandidate dom = make_candidate(enc, 2, 2, 0, 6, 6);
  const FeatureCandidate rare = make_candidate(enc, 2, 2, 1, 6, 6);
  const PoseId dominant = ClassifierConfig::kDominantPose;
  for (int i = 0; i < 100; ++i) {
    clf.observe(dominant, dom, dominant, Stage::kBeforeJumping, false);
  }
  for (int i = 0; i < 10; ++i) {
    clf.observe(PoseId::kStandHandsUp, rare, dominant, Stage::kBeforeJumping, false);
  }
  auto state = clf.initial_state();
  state.prev = dominant;
  const FrameResult r = clf.classify({rare}, false, state);
  EXPECT_EQ(r.pose, PoseId::kStandHandsUp);
  EXPECT_GT(r.posterior, cfg.th_pose);
}

TEST(Classifier, BuildPoseNetworkHasFig7Structure) {
  const PoseDbnClassifier clf = trained_two_pose();
  const bayes::Network net = clf.build_pose_network(PoseId::kStandHandsForward);
  // 1 root + 5 parts + 8 areas = 14 nodes.
  EXPECT_EQ(net.node_count(), 14);
  EXPECT_TRUE(net.find("Head").has_value());
  EXPECT_TRUE(net.find("Area I").has_value());
  EXPECT_TRUE(net.find("Area VIII").has_value());
  // Root has no parents; parts have 1; areas have 5.
  EXPECT_TRUE(net.parents(0).empty());
  EXPECT_EQ(net.parents(*net.find("Head")).size(), 1u);
  EXPECT_EQ(net.parents(*net.find("Area I")).size(), 5u);
}

TEST(Classifier, PoseNetworkPosteriorRespondsToEvidence) {
  const PoseDbnClassifier clf = trained_two_pose();
  const bayes::Network net = clf.build_pose_network(PoseId::kStandHandsForward);
  // Observe the Hand part in the forward area (state 0) vs backward (4):
  bayes::Assignment evidence(static_cast<std::size_t>(net.node_count()), bayes::kUnobserved);
  const int hand = *net.find("Hand");
  evidence[static_cast<std::size_t>(hand)] = 0;
  const double p_fwd = net.posterior(0, evidence)[1];
  evidence[static_cast<std::size_t>(hand)] = 4;
  const double p_back = net.posterior(0, evidence)[1];
  EXPECT_GT(p_fwd, p_back);
}

TEST(Classifier, DbnSliceHasTemporalNodes) {
  const PoseDbnClassifier clf = trained_two_pose();
  const bayes::Network net = clf.build_dbn_slice();
  EXPECT_TRUE(net.find("PreviousPose").has_value());
  EXPECT_TRUE(net.find("JumpingStage").has_value());
  EXPECT_TRUE(net.find("Pose").has_value());
  const int pose_node = *net.find("Pose");
  EXPECT_EQ(net.parents(pose_node).size(), 2u);
  // 3 temporal + 5 parts + 8 areas = 16 nodes.
  EXPECT_EQ(net.node_count(), 16);
}

}  // namespace
}  // namespace slj::pose
