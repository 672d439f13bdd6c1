// Clip and dataset generation: the stand-in for the paper's video corpus of
// 12 training clips (522 frames) and 3 test clips (135 frames).
#pragma once

#include <cstdint>
#include <vector>

#include "imaging/image.hpp"
#include "pose/pose_catalog.hpp"
#include "synth/jump_motion.hpp"
#include "synth/renderer.hpp"

namespace slj::synth {

/// Per-frame ground truth a human annotator would have supplied.
struct FrameTruth {
  pose::PoseId pose = pose::PoseId::kUnknown;
  pose::Stage stage = pose::Stage::kBeforeJumping;
  bool airborne = false;
  PartTruth parts;             ///< key body parts, image pixels
  JointAngles angles;          ///< generating angles (for diagnostics)
};

/// One video clip: a background plate, the frames, and per-frame truth —
/// what a camera and an annotator would have supplied. The noise-free
/// silhouettes are a scoring oracle, not part of the clip:
/// render_clean_silhouettes draws them from the clip's spec on demand.
struct Clip {
  std::uint32_t seed = 0;
  RgbImage background;
  std::vector<RgbImage> frames;
  std::vector<FrameTruth> truth;
  FaultFlags faults;

  int frame_count() const { return static_cast<int>(frames.size()); }
};

struct ClipSpec {
  std::uint32_t seed = 1;
  int frame_count = 44;
  FaultFlags faults;
  CameraConfig camera;
  double subject_height_mean = 1.38;
  double subject_height_sigma = 0.07;
};

/// Generates one clip. Deterministic in the spec (seed included).
Clip generate_clip(const ClipSpec& spec);

/// The noise-free silhouette of each of generate_clip(spec)'s frames, from
/// the same subject and motion, without drawing the frames' noise.
std::vector<BinaryImage> render_clean_silhouettes(const ClipSpec& spec);

struct Dataset {
  std::vector<Clip> train;
  std::vector<Clip> test;

  std::size_t train_frames() const;
  std::size_t test_frames() const;
};

struct DatasetSpec {
  std::uint32_t seed = 2008;  ///< base seed; clip seeds derive from it
  /// Frame counts per clip. Defaults reproduce the paper's corpus exactly:
  /// 12 training clips totalling 522 frames, 3 test clips totalling 135.
  std::vector<int> train_clip_frames = {44, 43, 44, 43, 44, 43, 44, 43, 44, 43, 44, 43};
  std::vector<int> test_clip_frames = {45, 45, 45};
  CameraConfig camera;
};

/// The clip specs a dataset is generated from: train clip i has seed
/// `seed + 1 + i`, test clip i seed `seed + 1001 + i`, each with the camera.
struct DatasetClipSpecs {
  std::vector<ClipSpec> train;
  std::vector<ClipSpec> test;
};

DatasetClipSpecs dataset_clip_specs(const DatasetSpec& spec);

/// generate_clip over dataset_clip_specs(spec), in order.
Dataset generate_dataset(const DatasetSpec& spec);

}  // namespace slj::synth
