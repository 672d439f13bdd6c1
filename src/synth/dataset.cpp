#include "synth/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "synth/labeler.hpp"

namespace slj::synth {

namespace {

/// The deterministic part of a clip: the subject and the motion, drawn from
/// the seed's stream, which it leaves positioned for the frames' noise.
struct ClipPlan {
  explicit ClipPlan(const ClipSpec& spec) : rng(spec.seed), renderer(spec.camera) {
    Normal height_dist(spec.subject_height_mean, spec.subject_height_sigma);
    body = BodyDimensions::for_height(std::clamp(height_dist(rng), 1.15, 1.62));

    JumpStyle style;
    style.seed = spec.seed * 7919u + 13u;  // decouple motion jitter from subject jitter
    style.faults = spec.faults;
    const UniformReal dist(1.00, 1.30);
    const UniformReal apex(0.20, 0.32);
    style.jump_distance = dist(rng);
    style.apex_height = apex(rng);
    motion = JumpMotionGenerator(body, style).generate(spec.frame_count);
  }

  Rng rng;
  SilhouetteRenderer renderer;
  BodyDimensions body;
  std::vector<MotionFrame> motion;
};

}  // namespace

Clip generate_clip(const ClipSpec& spec) {
  ClipPlan plan(spec);
  Clip clip;
  clip.seed = spec.seed;
  clip.faults = spec.faults;
  clip.background = plan.renderer.render_background(plan.rng);
  clip.frames.reserve(plan.motion.size());
  clip.truth.reserve(plan.motion.size());
  BinaryImage silhouette;
  for (const MotionFrame& mf : plan.motion) {
    plan.renderer.render_silhouette_into(plan.body, mf.angles, mf.pelvis, silhouette);
    clip.frames.push_back(plan.renderer.render_frame(silhouette, plan.rng));
    FrameTruth t;
    t.pose = label_pose(plan.body, mf);
    t.stage = mf.stage;
    t.airborne = mf.airborne;
    t.parts = plan.renderer.part_truth(plan.body, mf.angles, mf.pelvis);
    t.angles = mf.angles;
    clip.truth.push_back(t);
  }
  return clip;
}

std::vector<BinaryImage> render_clean_silhouettes(const ClipSpec& spec) {
  const ClipPlan plan(spec);
  std::vector<BinaryImage> masks(plan.motion.size());
  for (std::size_t i = 0; i < masks.size(); ++i) {
    const MotionFrame& mf = plan.motion[i];
    plan.renderer.render_silhouette_into(plan.body, mf.angles, mf.pelvis, masks[i]);
  }
  return masks;
}

std::size_t Dataset::train_frames() const {
  return std::accumulate(train.begin(), train.end(), std::size_t{0},
                         [](std::size_t n, const Clip& c) { return n + c.frames.size(); });
}

std::size_t Dataset::test_frames() const {
  return std::accumulate(test.begin(), test.end(), std::size_t{0},
                         [](std::size_t n, const Clip& c) { return n + c.frames.size(); });
}

DatasetClipSpecs dataset_clip_specs(const DatasetSpec& spec) {
  const auto derive = [&spec](std::uint32_t base_seed, const std::vector<int>& frames) {
    std::vector<ClipSpec> specs(frames.size());
    for (std::size_t i = 0; i < frames.size(); ++i) {
      specs[i].seed = base_seed + 1u + static_cast<std::uint32_t>(i);
      specs[i].frame_count = frames[i];
      specs[i].camera = spec.camera;
    }
    return specs;
  };
  // Offset the test seeds so adding training clips never changes test data.
  return {derive(spec.seed, spec.train_clip_frames),
          derive(spec.seed + 1000u, spec.test_clip_frames)};
}

Dataset generate_dataset(const DatasetSpec& spec) {
  const DatasetClipSpecs specs = dataset_clip_specs(spec);
  Dataset ds;
  for (const ClipSpec& cs : specs.train) ds.train.push_back(generate_clip(cs));
  for (const ClipSpec& cs : specs.test) ds.test.push_back(generate_clip(cs));
  return ds;
}

}  // namespace slj::synth
