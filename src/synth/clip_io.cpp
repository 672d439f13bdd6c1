#include "synth/clip_io.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "imaging/image_io.hpp"

namespace slj::synth {
namespace {

namespace fs = std::filesystem;

std::string frame_name(int index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "frame_%03d.ppm", index);
  return buf;
}

/// Largest accepted manifest frame count. Real clips are a few seconds at
/// camera rate (tens of frames); a manifest claiming more is corrupt or
/// hostile, and rejecting it keeps a flipped digit from turning the
/// truth/frame reserves below into giant allocations.
constexpr int kMaxClipFrames = 100000;

}  // namespace

void save_clip(const Clip& clip, const std::string& dir) {
  fs::create_directories(dir);
  write_ppm(clip.background, (fs::path(dir) / "background.ppm").string());
  for (int i = 0; i < clip.frame_count(); ++i) {
    write_ppm(clip.frames[static_cast<std::size_t>(i)],
              (fs::path(dir) / frame_name(i)).string());
  }

  std::ofstream manifest((fs::path(dir) / "manifest.txt").string());
  if (!manifest) throw std::runtime_error("cannot write manifest in " + dir);
  manifest << "slj-clip 1\n";
  manifest << "frames " << clip.frame_count() << '\n';
  manifest << "seed " << clip.seed << '\n';
  manifest << "faults " << (clip.faults.no_arm_swing ? 1 : 0) << ' '
           << (clip.faults.no_crouch ? 1 : 0) << ' ' << (clip.faults.stiff_landing ? 1 : 0)
           << ' ' << (clip.faults.no_forward_lean ? 1 : 0) << '\n';
  manifest << "truth " << (clip.truth.empty() ? 0 : 1) << '\n';
  const auto old_precision = manifest.precision(10);
  for (const FrameTruth& t : clip.truth) {
    manifest << pose::index_of(t.pose) << ' ' << pose::index_of(t.stage) << ' '
             << (t.airborne ? 1 : 0) << ' ' << t.parts.head.x << ' ' << t.parts.head.y << ' '
             << t.parts.chest.x << ' ' << t.parts.chest.y << ' ' << t.parts.hand.x << ' '
             << t.parts.hand.y << ' ' << t.parts.knee.x << ' ' << t.parts.knee.y << ' '
             << t.parts.foot.x << ' ' << t.parts.foot.y << ' ' << t.parts.waist.x << ' '
             << t.parts.waist.y << '\n';
  }
  manifest.precision(old_precision);
  if (!manifest) throw std::runtime_error("manifest write failure in " + dir);
}

Clip load_clip(const std::string& dir) {
  std::ifstream manifest((fs::path(dir) / "manifest.txt").string());
  if (!manifest) throw std::runtime_error("missing manifest in " + dir);
  std::string magic;
  int version = 0;
  if (!(manifest >> magic >> version) || magic != "slj-clip" || version != 1) {
    throw std::runtime_error("bad clip manifest in " + dir);
  }
  std::string tag;
  int frames = 0;
  Clip clip;
  if (!(manifest >> tag >> frames) || tag != "frames" || frames < 0 ||
      frames > kMaxClipFrames) {
    throw std::runtime_error("bad frame count in " + dir);
  }
  if (!(manifest >> tag >> clip.seed) || tag != "seed") {
    throw std::runtime_error("bad seed line in " + dir);
  }
  int f1 = 0, f2 = 0, f3 = 0, f4 = 0;
  if (!(manifest >> tag >> f1 >> f2 >> f3 >> f4) || tag != "faults") {
    throw std::runtime_error("bad faults line in " + dir);
  }
  clip.faults.no_arm_swing = f1 != 0;
  clip.faults.no_crouch = f2 != 0;
  clip.faults.stiff_landing = f3 != 0;
  clip.faults.no_forward_lean = f4 != 0;
  int has_truth = 0;
  if (!(manifest >> tag >> has_truth) || tag != "truth") {
    throw std::runtime_error("bad truth line in " + dir);
  }
  if (has_truth != 0) {
    clip.truth.reserve(static_cast<std::size_t>(frames));
    for (int i = 0; i < frames; ++i) {
      FrameTruth t;
      int pose_idx = 0, stage_idx = 0, airborne = 0;
      if (!(manifest >> pose_idx >> stage_idx >> airborne >> t.parts.head.x >>
            t.parts.head.y >> t.parts.chest.x >> t.parts.chest.y >> t.parts.hand.x >>
            t.parts.hand.y >> t.parts.knee.x >> t.parts.knee.y >> t.parts.foot.x >>
            t.parts.foot.y >> t.parts.waist.x >> t.parts.waist.y)) {
        throw std::runtime_error("truncated truth in " + dir);
      }
      try {
        t.pose = pose::pose_from_index(pose_idx);
        t.stage = pose::stage_from_index(stage_idx);
      } catch (const std::out_of_range&) {
        throw std::runtime_error("corrupt truth indices in " + dir);
      }
      t.airborne = airborne != 0;
      clip.truth.push_back(t);
    }
  }

  clip.background = read_ppm((fs::path(dir) / "background.ppm").string());
  clip.frames.reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    clip.frames.push_back(read_ppm((fs::path(dir) / frame_name(i)).string()));
  }
  return clip;
}

std::string clip_dir_name(const char* split, std::size_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s_%02zu", split, index);
  return buf;
}

void save_dataset(const Dataset& dataset, const std::string& dir) {
  fs::create_directories(dir);
  for (std::size_t i = 0; i < dataset.train.size(); ++i) {
    save_clip(dataset.train[i], (fs::path(dir) / clip_dir_name("train", i)).string());
  }
  for (std::size_t i = 0; i < dataset.test.size(); ++i) {
    save_clip(dataset.test[i], (fs::path(dir) / clip_dir_name("test", i)).string());
  }
}

Dataset load_dataset(const std::string& dir) {
  Dataset dataset;
  for (const auto& [split, clips] : {std::pair{"train", &dataset.train},
                                     std::pair{"test", &dataset.test}}) {
    for (std::size_t i = 0;; ++i) {
      const fs::path p = fs::path(dir) / clip_dir_name(split, i);
      if (!fs::exists(p / "manifest.txt")) break;
      clips->push_back(load_clip(p.string()));
    }
  }
  if (dataset.train.empty() && dataset.test.empty()) {
    throw std::runtime_error("no clips found under " + dir);
  }
  return dataset;
}

}  // namespace slj::synth
