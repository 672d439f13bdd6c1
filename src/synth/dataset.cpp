#include "synth/dataset.hpp"

#include <algorithm>
#include <numeric>

#include "synth/labeler.hpp"

namespace slj::synth {

Clip generate_clip(const ClipSpec& spec) {
  Clip clip;
  clip.seed = spec.seed;
  clip.faults = spec.faults;

  Rng rng(spec.seed);
  Normal height_dist(spec.subject_height_mean, spec.subject_height_sigma);
  const double height = std::clamp(height_dist(rng), 1.15, 1.62);
  const BodyDimensions body = BodyDimensions::for_height(height);

  JumpStyle style;
  style.seed = spec.seed * 7919u + 13u;  // decouple motion jitter from subject jitter
  style.faults = spec.faults;
  const UniformReal dist(1.00, 1.30);
  const UniformReal apex(0.20, 0.32);
  style.jump_distance = dist(rng);
  style.apex_height = apex(rng);

  const JumpMotionGenerator motion(body, style);
  const SilhouetteRenderer renderer(spec.camera);

  clip.background = renderer.render_background(rng);
  const std::vector<MotionFrame> frames = motion.generate(spec.frame_count);
  clip.frames.reserve(frames.size());
  clip.truth.reserve(frames.size());
  clip.clean_silhouettes.reserve(frames.size());
  for (const MotionFrame& mf : frames) {
    clip.clean_silhouettes.push_back(renderer.render_silhouette(body, mf.angles, mf.pelvis));
    clip.frames.push_back(renderer.render_frame(clip.clean_silhouettes.back(), rng));
    FrameTruth t;
    t.pose = label_pose(body, mf);
    t.stage = mf.stage;
    t.airborne = mf.airborne;
    t.parts = renderer.part_truth(body, mf.angles, mf.pelvis);
    t.angles = mf.angles;
    clip.truth.push_back(t);
  }
  return clip;
}

std::size_t Dataset::train_frames() const {
  return std::accumulate(train.begin(), train.end(), std::size_t{0},
                         [](std::size_t n, const Clip& c) { return n + c.frames.size(); });
}

std::size_t Dataset::test_frames() const {
  return std::accumulate(test.begin(), test.end(), std::size_t{0},
                         [](std::size_t n, const Clip& c) { return n + c.frames.size(); });
}

Dataset generate_dataset(const DatasetSpec& spec) {
  Dataset ds;
  std::uint32_t clip_seed = spec.seed;
  for (const int frames : spec.train_clip_frames) {
    ClipSpec cs;
    cs.seed = ++clip_seed;
    cs.frame_count = frames;
    cs.camera = spec.camera;
    ds.train.push_back(generate_clip(cs));
  }
  // Offset the test seeds so adding training clips never changes test data.
  clip_seed = spec.seed + 1000u;
  for (const int frames : spec.test_clip_frames) {
    ClipSpec cs;
    cs.seed = ++clip_seed;
    cs.frame_count = frames;
    cs.camera = spec.camera;
    ds.test.push_back(generate_clip(cs));
  }
  return ds;
}

}  // namespace slj::synth
