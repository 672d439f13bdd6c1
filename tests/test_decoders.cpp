#include "pose/decoders.hpp"

#include <gtest/gtest.h>

namespace slj::pose {
namespace {

FeatureCandidate make_candidate(const AreaEncoder& enc, int head, int chest, int hand, int knee,
                                int foot) {
  FeatureCandidate c;
  c.features[Part::kHead] = head;
  c.features[Part::kChest] = chest;
  c.features[Part::kHand] = hand;
  c.features[Part::kKnee] = knee;
  c.features[Part::kFoot] = foot;
  for (int i = 0; i < kPartCount; ++i) c.nodes[static_cast<std::size_t>(i)] = i;
  c.occupancy.assign(static_cast<std::size_t>(enc.num_areas()), 0);
  for (const int a : c.features.areas) {
    if (a < enc.num_areas()) c.occupancy[static_cast<std::size_t>(a)] = 1;
  }
  return c;
}

/// Classifier trained on a full synthetic "jump": standing → crouch →
/// take-off → air → landing, with distinct feature signatures.
struct Fixture {
  PoseDbnClassifier clf;
  FeatureCandidate stand, crouch, takeoff, air, land;

  Fixture() : clf() {
    const AreaEncoder& enc = clf.encoder();
    stand = make_candidate(enc, 2, 2, 0, 6, 6);
    crouch = make_candidate(enc, 1, 1, 4, 7, 6);
    takeoff = make_candidate(enc, 2, 2, 1, 6, 5);
    air = make_candidate(enc, 2, 2, 1, 7, 6);
    land = make_candidate(enc, 1, 1, 0, 7, 6);
    for (int rep = 0; rep < 25; ++rep) {
      PoseId prev = kResetPose;
      Stage stage = Stage::kBeforeJumping;
      const auto step = [&](PoseId p, const FeatureCandidate& c, bool airborne) {
        clf.observe(p, c, prev, stage_of(p), airborne);
        prev = p;
        stage = stage_of(p);
      };
      for (int i = 0; i < 4; ++i) step(PoseId::kStandHandsForward, stand, false);
      for (int i = 0; i < 3; ++i) step(PoseId::kCrouchHandsBackward, crouch, false);
      for (int i = 0; i < 2; ++i) step(PoseId::kExtendedHandsForward, takeoff, false);
      for (int i = 0; i < 4; ++i) step(PoseId::kAirTuckHandsForward, air, true);
      for (int i = 0; i < 3; ++i) step(PoseId::kLandedSquatHandsForward, land, false);
    }
  }

  std::vector<std::vector<FeatureCandidate>> clip() const {
    std::vector<std::vector<FeatureCandidate>> c;
    for (int i = 0; i < 4; ++i) c.push_back({stand});
    for (int i = 0; i < 3; ++i) c.push_back({crouch});
    for (int i = 0; i < 2; ++i) c.push_back({takeoff});
    for (int i = 0; i < 4; ++i) c.push_back({air});
    for (int i = 0; i < 3; ++i) c.push_back({land});
    return c;
  }

  std::vector<bool> flags() const {
    std::vector<bool> f(16, false);
    for (int i = 9; i < 13; ++i) f[static_cast<std::size_t>(i)] = true;
    return f;
  }
};

/// StageTracker replayed over a whole flag sequence.
std::vector<std::pair<Stage, Stage>> track(const std::vector<bool>& airborne) {
  StageTracker tracker;
  std::vector<std::pair<Stage, Stage>> bounds;
  for (const bool air : airborne) bounds.push_back(tracker.push(air));
  return bounds;
}

TEST(StageBounds, FollowTheFlightFlag) {
  const auto bounds = track({false, false, true, true, false, false});
  ASSERT_EQ(bounds.size(), 6u);
  EXPECT_EQ(bounds[0].first, Stage::kBeforeJumping);
  EXPECT_EQ(bounds[0].second, Stage::kJumping);
  EXPECT_EQ(bounds[2].first, Stage::kInTheAir);
  EXPECT_EQ(bounds[2].second, Stage::kInTheAir);
  EXPECT_EQ(bounds[4].first, Stage::kLanding);
  EXPECT_EQ(bounds[5].second, Stage::kLanding);
}

TEST(StageBounds, NoFlightMeansPreparationOnly) {
  const auto bounds = track({false, false, false});
  for (const auto& [lo, hi] : bounds) {
    EXPECT_EQ(lo, Stage::kBeforeJumping);
    EXPECT_EQ(hi, Stage::kJumping);
  }
}

// Regression: a spurious airborne flag after landing (bounce, segmentation
// noise) used to reopen kInTheAir; combined with the monotone stage
// discipline that made every state unreachable.
TEST(StageBounds, SpuriousAirborneAfterLandingStaysLanding) {
  const auto bounds = track({false, true, true, false, true, false, true});
  ASSERT_EQ(bounds.size(), 7u);
  for (std::size_t t = 3; t < bounds.size(); ++t) {
    EXPECT_EQ(bounds[t].first, Stage::kLanding) << "frame " << t;
    EXPECT_EQ(bounds[t].second, Stage::kLanding) << "frame " << t;
  }
}

TEST(StageBounds, ResetForgetsTheFlight) {
  StageTracker tracker;
  tracker.push(true);
  EXPECT_EQ(tracker.push(false), (std::pair{Stage::kLanding, Stage::kLanding}));
  tracker.reset();
  EXPECT_EQ(tracker.push(false), (std::pair{Stage::kBeforeJumping, Stage::kJumping}));
}

class DecoderModes : public ::testing::TestWithParam<SequenceDecoder> {};

TEST_P(DecoderModes, DecodesTheTrainedJumpPerfectly) {
  const Fixture fx;
  const auto results = decode_sequence(fx.clf, fx.clip(), fx.flags(), GetParam());
  ASSERT_EQ(results.size(), 16u);
  const PoseId expected[] = {
      PoseId::kStandHandsForward,      PoseId::kStandHandsForward,
      PoseId::kStandHandsForward,      PoseId::kStandHandsForward,
      PoseId::kCrouchHandsBackward,    PoseId::kCrouchHandsBackward,
      PoseId::kCrouchHandsBackward,    PoseId::kExtendedHandsForward,
      PoseId::kExtendedHandsForward,   PoseId::kAirTuckHandsForward,
      PoseId::kAirTuckHandsForward,    PoseId::kAirTuckHandsForward,
      PoseId::kAirTuckHandsForward,    PoseId::kLandedSquatHandsForward,
      PoseId::kLandedSquatHandsForward, PoseId::kLandedSquatHandsForward};
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].pose, expected[i]) << "frame " << i << " decoder "
                                            << static_cast<int>(GetParam());
  }
}

TEST_P(DecoderModes, StagesNeverRegress) {
  const Fixture fx;
  const auto results = decode_sequence(fx.clf, fx.clip(), fx.flags(), GetParam());
  int prev = 0;
  for (const FrameResult& r : results) {
    if (r.pose == PoseId::kUnknown) continue;
    EXPECT_GE(index_of(r.stage), prev);
    prev = index_of(r.stage);
  }
}

TEST_P(DecoderModes, AirFramesGetAirPoses) {
  const Fixture fx;
  const auto flags = fx.flags();
  const auto results = decode_sequence(fx.clf, fx.clip(), flags, GetParam());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (flags[i] && results[i].pose != PoseId::kUnknown) {
      EXPECT_EQ(stage_of(results[i].pose), Stage::kInTheAir) << "frame " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDecoders, DecoderModes,
                         ::testing::Values(SequenceDecoder::kOnline, SequenceDecoder::kFiltering,
                                           SequenceDecoder::kViterbi));

TEST(Decoders, ViterbiRevisesAGlitchFrame) {
  // One take-off-looking glitch frame in the middle of the stand phase.
  // Following it would jump the stage to "jumping" and make the later
  // standing frames (stage "before jumping") unreachable, so the globally
  // consistent Viterbi path must smooth the glitch back to standing.
  const Fixture fx;
  auto clip = fx.clip();
  clip[1] = {fx.takeoff};
  const auto flags = fx.flags();
  const auto viterbi = decode_sequence(fx.clf, clip, flags, SequenceDecoder::kViterbi);
  EXPECT_EQ(viterbi[1].pose, PoseId::kStandHandsForward);
  // Sanity: the surrounding frames stay standing too.
  EXPECT_EQ(viterbi[0].pose, PoseId::kStandHandsForward);
  EXPECT_EQ(viterbi[2].pose, PoseId::kStandHandsForward);
}

TEST(Decoders, EmptyFramesHandledByAllModes) {
  const Fixture fx;
  auto clip = fx.clip();
  clip[5].clear();  // silhouette lost for one frame
  for (const auto mode : {SequenceDecoder::kOnline, SequenceDecoder::kFiltering,
                          SequenceDecoder::kViterbi}) {
    const auto results = decode_sequence(fx.clf, clip, fx.flags(), mode);
    EXPECT_EQ(results.size(), clip.size());
  }
}

TEST(Decoders, LengthMismatchThrows) {
  const Fixture fx;
  EXPECT_THROW(decode_sequence(fx.clf, fx.clip(), {true}, SequenceDecoder::kViterbi),
               std::invalid_argument);
}

TEST(Decoders, EmptyClipGivesEmptyResults) {
  const Fixture fx;
  for (const auto mode : {SequenceDecoder::kFiltering, SequenceDecoder::kViterbi}) {
    EXPECT_TRUE(decode_sequence(fx.clf, {}, {}, mode).empty());
  }
}

// Regression: a spurious airborne flag after touchdown used to make every
// state unreachable for filtering and Viterbi, and the online rule, which
// kept its own copy of the flag→stage rule, emitted Unknown on that frame.
// All three decoders now read StageTracker, so those frames stay in landing.
TEST(Decoders, SpuriousAirborneAfterLandingKeepsLandingPoses) {
  const Fixture fx;
  auto flags = fx.flags();
  flags[14] = true;  // one bad flag between two landing frames
  for (const auto mode : {SequenceDecoder::kOnline, SequenceDecoder::kFiltering,
                          SequenceDecoder::kViterbi}) {
    const auto results = decode_sequence(fx.clf, fx.clip(), flags, mode);
    for (std::size_t t = 13; t < results.size(); ++t) {
      EXPECT_EQ(stage_of(results[t].pose), Stage::kLanding)
          << "frame " << t << " decoder " << static_cast<int>(mode);
    }
  }
}

// Regression: the filtering decoder used to exponentiate log-emissions in
// linear space; a heavily cluttered clip (many unexplained areas, each a
// log(clutter_epsilon) charge) underflowed every weight to zero and
// collapsed the belief to uniform. The clutter charge is pose-independent,
// so the max-log shift cancels it exactly: the cluttered clip must decode
// like the clean one, with confident posteriors.
TEST(Decoders, HeavyClutterDoesNotUnderflowTheFilter) {
  const Fixture fx;
  auto cluttered = fx.clip();
  for (auto& frame : cluttered) {
    for (FeatureCandidate& c : frame) c.unexplained_areas = 600;  // ≈ -830 nats per frame
  }
  const auto clean = decode_sequence(fx.clf, fx.clip(), fx.flags(), SequenceDecoder::kFiltering);
  const auto noisy = decode_sequence(fx.clf, cluttered, fx.flags(), SequenceDecoder::kFiltering);
  ASSERT_EQ(noisy.size(), clean.size());
  for (std::size_t t = 0; t < clean.size(); ++t) {
    EXPECT_EQ(noisy[t].pose, clean[t].pose) << "frame " << t;
    EXPECT_NEAR(noisy[t].posterior, clean[t].posterior, 1e-9) << "frame " << t;
    // Far from the uniform 1/22 the underflow used to produce.
    EXPECT_GT(noisy[t].posterior, 0.2) << "frame " << t;
  }
}

// Regression: Viterbi results used to hard-code posterior = 1.0; the
// reported confidence is now the forward-pass marginal of the path state.
TEST(Decoders, ViterbiPosteriorIsARealMarginal) {
  const Fixture fx;
  const auto viterbi = decode_sequence(fx.clf, fx.clip(), fx.flags(), SequenceDecoder::kViterbi);
  const auto filtering =
      decode_sequence(fx.clf, fx.clip(), fx.flags(), SequenceDecoder::kFiltering);
  for (std::size_t t = 0; t < viterbi.size(); ++t) {
    EXPECT_GT(viterbi[t].posterior, 0.0) << "frame " << t;
    EXPECT_LE(viterbi[t].posterior, 1.0) << "frame " << t;
    if (viterbi[t].pose == filtering[t].pose) {
      // Same forward pass, so the marginals must agree exactly.
      EXPECT_DOUBLE_EQ(viterbi[t].posterior, filtering[t].posterior) << "frame " << t;
    }
  }

  // With an untrained (flat) model the marginal spreads over every pose the
  // bounds allow — nowhere near the fake 1.0 certainty.
  const PoseDbnClassifier untrained;
  const auto flat = decode_sequence(untrained, fx.clip(), fx.flags(), SequenceDecoder::kViterbi);
  for (std::size_t t = 0; t < flat.size(); ++t) {
    EXPECT_LT(flat[t].posterior, 0.9) << "frame " << t;
    EXPECT_GT(flat[t].posterior, 0.0) << "frame " << t;
  }
}

TEST(OnlineForwardDecoderTest, MatchesBatchFilteringAndResets) {
  const Fixture fx;
  const auto clip = fx.clip();
  const auto flags = fx.flags();
  const auto batch = decode_sequence(fx.clf, clip, flags, SequenceDecoder::kFiltering);

  OnlineForwardDecoder online(fx.clf);
  for (int round = 0; round < 2; ++round) {
    for (std::size_t t = 0; t < clip.size(); ++t) {
      const FrameResult r = online.push(clip[t], flags[t]);
      EXPECT_EQ(r.pose, batch[t].pose) << "round " << round << " frame " << t;
      EXPECT_DOUBLE_EQ(r.posterior, batch[t].posterior) << "round " << round << " frame " << t;
    }
    EXPECT_EQ(online.frames_seen(), clip.size());
    online.reset();
    EXPECT_EQ(online.frames_seen(), 0u);
  }
}

}  // namespace
}  // namespace slj::pose
