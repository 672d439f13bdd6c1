#include "synth/jump_motion.hpp"

#include <algorithm>
#include <cmath>

namespace slj::synth {
namespace {

constexpr double deg(double d) { return d * 3.14159265358979323846 / 180.0; }

}  // namespace

JumpMotionGenerator::Track::Track(std::initializer_list<std::pair<double, double>> knots)
    : knots_(knots) {
  std::sort(knots_.begin(), knots_.end());
}

void JumpMotionGenerator::Track::add(double t, double value) {
  knots_.emplace_back(t, value);
  std::sort(knots_.begin(), knots_.end());
}

void JumpMotionGenerator::Track::jitter(Rng& rng, double value_sigma, double time_sigma) {
  Normal dv(0.0, value_sigma);
  Normal dt(0.0, time_sigma);
  for (auto& [t, v] : knots_) {
    v += dv(rng);
    // Keep the clip endpoints anchored so every jump spans the full clip.
    if (t > 0.0 && t < 1.0) t = std::clamp(t + dt(rng), 0.01, 0.99);
  }
  std::sort(knots_.begin(), knots_.end());
}

void JumpMotionGenerator::Track::scale_values(double factor) {
  for (auto& [t, v] : knots_) v *= factor;
}

void JumpMotionGenerator::Track::clamp_values(double lo, double hi) {
  for (auto& [t, v] : knots_) v = std::clamp(v, lo, hi);
}

double JumpMotionGenerator::Track::eval(double t) const {
  if (knots_.empty()) return 0.0;
  if (t <= knots_.front().first) return knots_.front().second;
  if (t >= knots_.back().first) return knots_.back().second;
  for (std::size_t i = 1; i < knots_.size(); ++i) {
    if (t <= knots_[i].first) {
      const auto& [t0, v0] = knots_[i - 1];
      const auto& [t1, v1] = knots_[i];
      if (t1 <= t0) return v1;
      const double u = (t - t0) / (t1 - t0);
      // Cosine easing: zero-velocity at knots, like real limb reversals.
      const double w = (1.0 - std::cos(3.14159265358979323846 * u)) / 2.0;
      return v0 + (v1 - v0) * w;
    }
  }
  return knots_.back().second;
}

JumpMotionGenerator::JumpMotionGenerator(BodyDimensions body, JumpStyle style)
    : body_(body), style_(style) {
  build_tracks();
}

void JumpMotionGenerator::build_tracks() {
  Rng rng(style_.seed);
  const UniformReal unit(0.0, 1.0);

  // Subject-level timing variation.
  t_crouch_ = 0.30 + (unit(rng) - 0.5) * 0.04;
  t_liftoff_ = 0.45 + (unit(rng) - 0.5) * 0.04;
  t_touchdown_ = 0.76 + (unit(rng) - 0.5) * 0.04;
  const double tc = t_crouch_;
  const double tl = t_liftoff_;
  const double td = t_touchdown_;
  const double t_extend = tc + (tl - tc) * 0.55;  // explosive extension starts

  // --- angle choreography (degrees, converted at the end) ---------------
  torso_lean_ = Track{{0.0, 1}, {0.12, 4},  {0.20, 10}, {tc, 28},       {t_extend, 30},
                      {tl, 20}, {0.55, 22}, {0.66, 15}, {td - 0.02, 18}, {td + 0.03, 30},
                      {0.87, 34}, {1.0, 12}};
  neck_tilt_ = Track{{0.0, 2}, {tc, 8}, {tl, -4}, {0.7, 2}, {1.0, 3}};
  shoulder_ = Track{{0.0, 4},   {0.09, 42},  {0.19, 50},  {tc, -55},     {t_extend, -50},
                    {tl, 70},   {0.52, 100}, {0.62, 92},  {td - 0.02, 80}, {td + 0.05, 55},
                    {0.88, 25}, {1.0, 8}};
  elbow_ = Track{{0.0, 10}, {tc, 28}, {tl, 14}, {0.6, 18}, {0.85, 22}, {1.0, 12}};
  hip_ = Track{{0.0, 2},        {0.15, 4},  {tc, 65},   {t_extend, 60}, {tl, 8},
               {0.54, 32},      {0.64, 75}, {td - 0.03, 86}, {td + 0.04, 72},
               {0.88, 55},      {1.0, 6}};
  knee_ = Track{{0.0, 2},   {0.15, 5},  {tc, 78},       {t_extend, 70}, {tl, 5},
                {0.54, 48}, {0.62, 92}, {td - 0.04, 30}, {td, 24},      {td + 0.05, 78},
                {0.88, 52}, {1.0, 8}};
  ankle_ = Track{{0.0, 90}, {tc, 92}, {tl - 0.02, 86}, {tl + 0.01, 55}, {0.56, 78},
                 {0.70, 96}, {td, 92}, {1.0, 90}};

  // Horizontal pelvis travel: small shift into the crouch, ballistic flight
  // covering the jump distance, a short settle after touchdown.
  const UniformReal dist_jitter(0.92, 1.10);
  const double travel = style_.jump_distance * dist_jitter(rng);
  root_x_ = Track{{0.0, 0.0}, {0.22, 0.015}, {tc, 0.04}, {tl, 0.11},
                  {td, 0.11 + travel}, {0.9, 0.13 + travel}, {1.0, 0.14 + travel}};

  // Per-subject articulation jitter (about 2.5 deg / 1% time).
  const double vs = deg(1.6);
  for (Track* track : {&torso_lean_, &neck_tilt_, &shoulder_, &elbow_, &hip_, &knee_, &ankle_}) {
    track->scale_values(deg(1.0));  // degrees -> radians
    track->jitter(rng, vs, 0.007);
  }
  root_x_.jitter(rng, 0.008, 0.008);

  // --- movement faults ---------------------------------------------------
  if (style_.faults.no_arm_swing) shoulder_.clamp_values(deg(-8), deg(14));
  if (style_.faults.no_crouch) {
    // A jumper who never loads: shallow knees/hips before take-off. Clamping
    // the whole track also flattens the landing a little, which is exactly
    // what an unloaded jump looks like.
    knee_.clamp_values(deg(0), deg(24));
    hip_.clamp_values(deg(0), deg(26));
  }
  if (style_.faults.stiff_landing) {
    // Keep preparation intact but freeze the absorption: clamp only knots in
    // the landing window by rebuilding the track through eval().
    Track stiff_knee, stiff_hip;
    for (double t = 0.0; t <= 1.0001; t += 0.02) {
      const double clamp_from = td - 0.01;
      const double k = knee_.eval(t);
      const double hp = hip_.eval(t);
      stiff_knee.add(t, t >= clamp_from ? std::min(k, deg(16)) : k);
      stiff_hip.add(t, t >= clamp_from ? std::min(hp, deg(20)) : hp);
    }
    knee_ = stiff_knee;
    hip_ = stiff_hip;
  }
  if (style_.faults.no_forward_lean) torso_lean_.clamp_values(deg(-4), deg(7));
}

MotionFrame JumpMotionGenerator::sample(double t) const {
  MotionFrame f;
  f.time_fraction = t;
  f.angles.torso_lean = torso_lean_.eval(t);
  f.angles.neck_tilt = neck_tilt_.eval(t);
  f.angles.shoulder = shoulder_.eval(t);
  f.angles.elbow = elbow_.eval(t);
  f.angles.hip = hip_.eval(t);
  f.angles.knee = knee_.eval(t);
  f.angles.ankle = ankle_.eval(t);

  f.airborne = t > t_liftoff_ && t < t_touchdown_;
  const double t_extend = t_crouch_ + (t_liftoff_ - t_crouch_) * 0.55;
  if (t < t_extend) {
    f.stage = pose::Stage::kBeforeJumping;
  } else if (t <= t_liftoff_) {
    f.stage = pose::Stage::kJumping;
  } else if (t < t_touchdown_) {
    f.stage = pose::Stage::kInTheAir;
  } else {
    f.stage = pose::Stage::kLanding;
  }

  const double x = root_x_.eval(t);
  double y;
  if (!f.airborne) {
    y = pelvis_height_for_ground_contact(body_, f.angles);
  } else {
    // Ballistic arc between the lift-off and touchdown contact heights.
    JointAngles lift = f.angles;
    MotionFrame tmp;
    (void)tmp;
    const auto angles_at = [&](double tt) {
      JointAngles a;
      a.torso_lean = torso_lean_.eval(tt);
      a.neck_tilt = neck_tilt_.eval(tt);
      a.shoulder = shoulder_.eval(tt);
      a.elbow = elbow_.eval(tt);
      a.hip = hip_.eval(tt);
      a.knee = knee_.eval(tt);
      a.ankle = ankle_.eval(tt);
      return a;
    };
    lift = angles_at(t_liftoff_);
    const JointAngles land = angles_at(t_touchdown_);
    const double y0 = pelvis_height_for_ground_contact(body_, lift);
    const double y1 = pelvis_height_for_ground_contact(body_, land);
    const double s = (t - t_liftoff_) / (t_touchdown_ - t_liftoff_);
    y = (1.0 - s) * y0 + s * y1 + 4.0 * style_.apex_height * s * (1.0 - s);
  }
  f.pelvis = {x, y};
  return f;
}

std::vector<MotionFrame> JumpMotionGenerator::generate(int frame_count) const {
  std::vector<MotionFrame> frames;
  frames.reserve(static_cast<std::size_t>(frame_count));
  for (int i = 0; i < frame_count; ++i) {
    const double t = frame_count > 1 ? static_cast<double>(i) / (frame_count - 1) : 0.0;
    frames.push_back(sample(t));
  }
  return frames;
}

}  // namespace slj::synth
