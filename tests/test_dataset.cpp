#include "synth/dataset.hpp"

#include <gtest/gtest.h>

namespace slj::synth {
namespace {

TEST(Dataset, DefaultSpecMatchesPaperCorpusExactly) {
  const DatasetSpec spec;
  // 12 training clips totalling 522 frames; 3 test clips totalling 135.
  EXPECT_EQ(spec.train_clip_frames.size(), 12u);
  EXPECT_EQ(spec.test_clip_frames.size(), 3u);
  int train = 0, test = 0;
  for (const int f : spec.train_clip_frames) train += f;
  for (const int f : spec.test_clip_frames) test += f;
  EXPECT_EQ(train, 522);
  EXPECT_EQ(test, 135);
}

TEST(Dataset, GeneratedCorpusHasPaperCounts) {
  DatasetSpec spec;
  // Shrink images for test speed but keep the clip structure.
  spec.camera.width = 96;
  spec.camera.height = 64;
  spec.camera.pixels_per_meter = 24.0;
  spec.camera.ground_y_px = 60.0;
  spec.camera.origin_x_px = 12.0;
  const Dataset ds = generate_dataset(spec);
  EXPECT_EQ(ds.train.size(), 12u);
  EXPECT_EQ(ds.test.size(), 3u);
  EXPECT_EQ(ds.train_frames(), 522u);
  EXPECT_EQ(ds.test_frames(), 135u);
}

ClipSpec small_clip_spec(std::uint32_t seed, int frames = 20) {
  ClipSpec spec;
  spec.seed = seed;
  spec.frame_count = frames;
  spec.camera.width = 120;
  spec.camera.height = 80;
  spec.camera.pixels_per_meter = 30.0;
  spec.camera.ground_y_px = 75.0;
  spec.camera.origin_x_px = 15.0;
  return spec;
}

TEST(Clip, FramesTruthAndSilhouettesAligned) {
  const Clip clip = generate_clip(small_clip_spec(4));
  EXPECT_EQ(clip.frames.size(), 20u);
  EXPECT_EQ(clip.truth.size(), 20u);
  EXPECT_EQ(clip.clean_silhouettes.size(), 20u);
  EXPECT_EQ(clip.frame_count(), 20);
  EXPECT_EQ(clip.background.width(), 120);
}

TEST(Clip, DeterministicForSameSpec) {
  const Clip a = generate_clip(small_clip_spec(7));
  const Clip b = generate_clip(small_clip_spec(7));
  EXPECT_EQ(a.frames[5], b.frames[5]);
  EXPECT_EQ(a.truth[5].pose, b.truth[5].pose);
}

TEST(Clip, DifferentSeedsGiveDifferentJumps) {
  const Clip a = generate_clip(small_clip_spec(1));
  const Clip b = generate_clip(small_clip_spec(2));
  EXPECT_NE(a.frames[10], b.frames[10]);
}

TEST(Clip, TruthStagesProgress) {
  const Clip clip = generate_clip(small_clip_spec(3, 40));
  int prev = 0;
  for (const FrameTruth& t : clip.truth) {
    EXPECT_GE(static_cast<int>(t.stage), prev);
    prev = std::max(prev, static_cast<int>(t.stage));
  }
  EXPECT_EQ(static_cast<int>(clip.truth.back().stage),
            static_cast<int>(pose::Stage::kLanding));
}

TEST(Clip, CleanSilhouetteMatchesPartTruth) {
  const Clip clip = generate_clip(small_clip_spec(5, 30));
  for (std::size_t i = 0; i < clip.truth.size(); i += 7) {
    const PointI waist = round_to_i(clip.truth[i].parts.waist);
    ASSERT_TRUE(clip.clean_silhouettes[i].in_bounds(waist));
    EXPECT_TRUE(clip.clean_silhouettes[i].at(waist));
  }
}

TEST(Clip, FaultFlagsPropagate) {
  ClipSpec spec = small_clip_spec(6);
  spec.faults.no_arm_swing = true;
  const Clip clip = generate_clip(spec);
  EXPECT_TRUE(clip.faults.no_arm_swing);
}

// 64-bit FNV-1a over every byte a clip hands downstream: background, frames,
// clean silhouettes and per-frame truth. The pinned digests below make any
// change to the rendered corpus, however small, fail loudly instead of
// silently moving every accuracy table.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof v);
  }
  template <typename T>
  void image(const Image<T>& img) {
    value(img.width());
    value(img.height());
    bytes(img.data().data(), img.data().size() * sizeof(T));
  }
  void clip(const Clip& c) {
    image(c.background);
    value(c.frame_count());
    for (const RgbImage& f : c.frames) image(f);
    for (const BinaryImage& s : c.clean_silhouettes) image(s);
    for (const FrameTruth& t : c.truth) {
      value(t.pose);
      value(t.stage);
      value(static_cast<std::uint8_t>(t.airborne));
      for (const PointF p : {t.parts.head, t.parts.chest, t.parts.hand, t.parts.knee,
                             t.parts.foot, t.parts.waist}) {
        value(p.x);
        value(p.y);
      }
      for (const double a : {t.angles.torso_lean, t.angles.neck_tilt, t.angles.shoulder,
                             t.angles.elbow, t.angles.hip, t.angles.knee, t.angles.ankle}) {
        value(a);
      }
    }
  }
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::uint64_t clip_digest(const ClipSpec& spec) {
  Fnv1a h;
  h.clip(generate_clip(spec));
  return h.digest();
}

TEST(CorpusDigest, PaperDatasetIsPinned) {
  const Dataset ds = generate_dataset(DatasetSpec{});
  Fnv1a h;
  for (const Clip& c : ds.train) h.clip(c);
  for (const Clip& c : ds.test) h.clip(c);
  EXPECT_EQ(h.digest(), 0xe02053c5168614f9ull);
}

TEST(CorpusDigest, EveryFaultFlagIsPinned) {
  struct Case {
    FaultFlags faults;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {{.no_arm_swing = true}, 0xb13a209a0f0aba10ull},
      {{.no_crouch = true}, 0x77741e83e5a488a7ull},
      {{.stiff_landing = true}, 0x7313c83bc42aceffull},
      {{.no_forward_lean = true}, 0x057bff763d392ffdull},
      {{true, true, true, true}, 0x8f5b08e8e3473889ull},
  };
  std::uint32_t seed = 60;
  for (const Case& c : cases) {
    ClipSpec spec;
    spec.seed = ++seed;
    spec.frame_count = 16;
    spec.faults = c.faults;
    EXPECT_EQ(clip_digest(spec), c.digest) << "seed " << spec.seed;
  }
}

TEST(CorpusDigest, OddWidthCameraIsPinned) {
  // 101 px rows draw an odd number of normals (3 per pixel), so the polar
  // method's saved second value carries from one row into the next.
  ClipSpec spec;
  spec.seed = 77;
  spec.frame_count = 20;
  spec.camera.width = 101;
  spec.camera.height = 77;
  spec.camera.pixels_per_meter = 26.0;
  spec.camera.ground_y_px = 72.0;
  spec.camera.origin_x_px = 12.0;
  EXPECT_EQ(clip_digest(spec), 0xc40934ef079fba93ull);
}

TEST(Dataset, TestCorpusIndependentOfTrainingSize) {
  DatasetSpec big;
  big.camera.width = 96;
  big.camera.height = 64;
  big.camera.pixels_per_meter = 24.0;
  big.camera.ground_y_px = 60.0;
  DatasetSpec small = big;
  small.train_clip_frames = {44, 43};  // fewer training clips
  const Dataset ds_big = generate_dataset(big);
  const Dataset ds_small = generate_dataset(small);
  ASSERT_EQ(ds_big.test.size(), ds_small.test.size());
  for (std::size_t c = 0; c < ds_big.test.size(); ++c) {
    EXPECT_EQ(ds_big.test[c].frames[0], ds_small.test[c].frames[0]);
  }
}

}  // namespace
}  // namespace slj::synth
