// Parametric standing-long-jump choreography. Produces, for each frame of a
// clip, the joint angles, pelvis trajectory, airborne flag and the paper's
// four-stage annotation (before jumping / jumping / in the air / landing).
//
// The motion is keyframed in normalized clip time and re-sampled to any
// frame count (the paper's clips run ~40 frames). Per-subject variation
// (stature, amplitudes, timing) and deliberate movement faults for the
// coaching demo are driven by a seeded RNG, so datasets are reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "pose/pose_catalog.hpp"
#include "synth/body_model.hpp"
#include "synth/rng.hpp"

namespace slj::synth {

/// Deliberate deviations from the standing-long-jump standard, used by the
/// coach-feedback example and the fault-detection tests.
struct FaultFlags {
  bool no_arm_swing = false;    ///< arms stay near the body the whole jump
  bool no_crouch = false;       ///< knees barely bend before take-off
  bool stiff_landing = false;   ///< lands with almost straight knees
  bool no_forward_lean = false; ///< torso stays upright at take-off

  bool any() const { return no_arm_swing || no_crouch || stiff_landing || no_forward_lean; }
};

/// One sampled frame of the jump.
struct MotionFrame {
  JointAngles angles;
  PointF pelvis;              ///< world position, metres
  bool airborne = false;
  pose::Stage stage = pose::Stage::kBeforeJumping;
  double time_fraction = 0.0; ///< 0..1 across the clip
};

struct JumpStyle {
  std::uint32_t seed = 1;
  FaultFlags faults;
  double jump_distance = 1.15;  ///< metres, nominal; jittered per subject
  double apex_height = 0.26;    ///< extra pelvis rise at flight apex, metres
};

class JumpMotionGenerator {
 public:
  JumpMotionGenerator(BodyDimensions body, JumpStyle style);

  const BodyDimensions& body() const { return body_; }

  /// Samples the whole jump at `frame_count` uniformly spaced instants.
  std::vector<MotionFrame> generate(int frame_count) const;

  /// Samples a single normalized instant t ∈ [0, 1].
  MotionFrame sample(double t) const;

  /// Stage windows in normalized time (exposed for tests).
  double takeoff_time() const { return t_liftoff_; }
  double touchdown_time() const { return t_touchdown_; }

 private:
  /// Piecewise-linear keyframe track with cosine easing between knots.
  class Track {
   public:
    Track() = default;
    Track(std::initializer_list<std::pair<double, double>> knots);
    void add(double t, double value);
    void jitter(Rng& rng, double value_sigma, double time_sigma);
    void scale_values(double factor);
    void clamp_values(double lo, double hi);
    double eval(double t) const;

   private:
    std::vector<std::pair<double, double>> knots_;
  };

  void build_tracks();

  BodyDimensions body_;
  JumpStyle style_;
  double t_crouch_ = 0.30;    ///< deepest crouch
  double t_liftoff_ = 0.45;   ///< feet leave the ground
  double t_touchdown_ = 0.76; ///< feet strike the ground
  Track torso_lean_, neck_tilt_, shoulder_, elbow_, hip_, knee_, ankle_, root_x_;
};

}  // namespace slj::synth
