#include "core/scoring.hpp"

#include <gtest/gtest.h>

#include "core/trainer.hpp"
#include "synth/dataset.hpp"

namespace slj::core {
namespace {

/// Synthetic observations: a silhouette block on the ground that jumps from
/// x∈[10,20] to x∈[60,70] with a 3-frame flight.
struct MiniJump {
  std::vector<FrameObservation> observations;
  std::vector<bool> airborne;

  MiniJump() {
    const int w = 100, h = 40, ground = 35;
    const auto block = [&](int x0, int x1, int bottom) {
      FrameObservation obs;
      obs.silhouette = BinaryImage(w, h, 0);
      for (int y = bottom - 10; y <= bottom; ++y) {
        for (int x = x0; x <= x1; ++x) obs.silhouette.at(x, y) = 1;
      }
      obs.bottom_row = bottom;
      return obs;
    };
    // 3 grounded frames at the start position.
    for (int i = 0; i < 3; ++i) {
      observations.push_back(block(10, 20, ground));
      airborne.push_back(false);
    }
    // 3 airborne frames moving across.
    for (int i = 0; i < 3; ++i) {
      observations.push_back(block(30 + 10 * i, 40 + 10 * i, ground - 8));
      airborne.push_back(true);
    }
    // 3 grounded frames at the landing position.
    for (int i = 0; i < 3; ++i) {
      observations.push_back(block(60, 70, ground));
      airborne.push_back(false);
    }
  }
};

TEST(MeasureJump, FindsTakeoffAndLandingFrames) {
  const MiniJump jump;
  const auto m = measure_jump(jump.observations, jump.airborne, 50.0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->takeoff_frame, 2);
  EXPECT_EQ(m->landing_frame, 6);
  EXPECT_EQ(m->flight_frames, 3);
}

TEST(MeasureJump, DistanceIsToeToHeel) {
  const MiniJump jump;
  const auto m = measure_jump(jump.observations, jump.airborne, 50.0);
  ASSERT_TRUE(m.has_value());
  // Toe at take-off: x=20. Heel at landing: x=60. 40 px at 50 px/m = 0.8 m.
  EXPECT_DOUBLE_EQ(m->takeoff_toe_px, 20.0);
  EXPECT_DOUBLE_EQ(m->landing_heel_px, 60.0);
  EXPECT_DOUBLE_EQ(m->distance_px, 40.0);
  EXPECT_NEAR(m->distance_m, 0.8, 1e-9);
}

TEST(MeasureJump, NoFlightGivesNullopt) {
  MiniJump jump;
  std::fill(jump.airborne.begin(), jump.airborne.end(), false);
  EXPECT_FALSE(measure_jump(jump.observations, jump.airborne, 50.0).has_value());
}

TEST(MeasureJump, FlightAtClipEdgeGivesNullopt) {
  MiniJump jump;
  // Airborne from frame 0: no grounded take-off frame.
  jump.airborne[0] = true;
  jump.airborne[1] = true;
  std::fill(jump.airborne.begin() + 2, jump.airborne.end(), false);
  jump.airborne[0] = true;
  auto a = jump.airborne;
  a.assign(a.size(), false);
  a[0] = true;
  EXPECT_FALSE(measure_jump(jump.observations, a, 50.0).has_value());
}

TEST(MeasureJump, MismatchedSizesGiveNullopt) {
  const MiniJump jump;
  std::vector<bool> wrong(jump.airborne.begin(), jump.airborne.end() - 1);
  EXPECT_FALSE(measure_jump(jump.observations, wrong, 50.0).has_value());
}

TEST(ScoreJump, CombinesFormAndDistance) {
  const MiniJump jump;
  // Perfect form sequence.
  std::vector<pose::FrameResult> poses;
  const auto add = [&](pose::PoseId p) {
    pose::FrameResult r;
    r.pose = p;
    poses.push_back(r);
  };
  add(pose::PoseId::kStandHandsBackward);
  add(pose::PoseId::kCrouchHandsBackward);
  add(pose::PoseId::kExtendedHandsForward);
  add(pose::PoseId::kAirTuckHandsForward);
  add(pose::PoseId::kAirLegsReachForward);
  add(pose::PoseId::kTouchdownKneesBentHandsForward);
  add(pose::PoseId::kLandedSquatHandsForward);
  add(pose::PoseId::kLandedRisingHandsDown);
  add(pose::PoseId::kLandedRisingHandsDown);

  const JumpScore score = score_jump(jump.observations, jump.airborne, poses, 50.0, 0.8);
  EXPECT_TRUE(score.measurement.valid());
  EXPECT_TRUE(score.form.all_passed());
  EXPECT_EQ(score.total, 100);  // 60 form + 40 distance (0.8 m of 0.8 m)
  EXPECT_EQ(score.grade, "excellent");
}

TEST(ScoreJump, ShortJumpLosesDistancePoints) {
  const MiniJump jump;
  std::vector<pose::FrameResult> poses(9);  // all Unknown: fails every form check
  const JumpScore score = score_jump(jump.observations, jump.airborne, poses, 50.0, 1.6);
  // distance 0.8 of expected 1.6 → 20 of 40 points; form 0.
  EXPECT_EQ(score.total, 20);
  EXPECT_EQ(score.grade, "needs work");
}

TEST(ScoreJump, EndToEndOnGeneratedClip) {
  synth::ClipSpec spec;
  spec.seed = 17;
  spec.frame_count = 45;
  const synth::Clip clip = synth::generate_clip(spec);
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  GroundMonitor ground;
  std::vector<FrameObservation> observations;
  std::vector<bool> airborne;
  FrameWorkspace ws;
  for (const RgbImage& frame : clip.frames) {
    pipeline.process_into(frame, ws, observations.emplace_back());
    airborne.push_back(ground.airborne(observations.back().bottom_row));
  }
  const auto m =
      measure_jump(observations, airborne, spec.camera.pixels_per_meter);
  ASSERT_TRUE(m.has_value());
  // Generated jumps travel roughly 1.0–1.5 m.
  EXPECT_GT(m->distance_m, 0.6);
  EXPECT_LT(m->distance_m, 2.0);
  EXPECT_GT(m->flight_frames, 5);
}

}  // namespace
}  // namespace slj::core
