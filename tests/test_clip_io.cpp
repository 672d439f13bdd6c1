#include "synth/clip_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace slj::synth {
namespace {

class ClipIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test case: ctest runs cases as concurrent processes.
    const ::testing::TestInfo* test = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::filesystem::temp_directory_path() /
           ("slj_clip_io_test_" + std::string(test->name()) + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static ClipSpec small_spec(std::uint32_t seed = 5, int frames = 8) {
    ClipSpec spec;
    spec.seed = seed;
    spec.frame_count = frames;
    spec.camera.width = 96;
    spec.camera.height = 64;
    spec.camera.pixels_per_meter = 24.0;
    spec.camera.ground_y_px = 60.0;
    spec.camera.origin_x_px = 12.0;
    return spec;
  }

  std::filesystem::path dir_;
};

TEST_F(ClipIoTest, ClipRoundTripPreservesFramesAndTruth) {
  const Clip original = generate_clip(small_spec());
  save_clip(original, path("clip"));
  const Clip loaded = load_clip(path("clip"));

  ASSERT_EQ(loaded.frames.size(), original.frames.size());
  EXPECT_EQ(loaded.background, original.background);
  for (std::size_t i = 0; i < original.frames.size(); ++i) {
    EXPECT_EQ(loaded.frames[i], original.frames[i]) << "frame " << i;
  }
  ASSERT_EQ(loaded.truth.size(), original.truth.size());
  for (std::size_t i = 0; i < original.truth.size(); ++i) {
    EXPECT_EQ(loaded.truth[i].pose, original.truth[i].pose);
    EXPECT_EQ(loaded.truth[i].stage, original.truth[i].stage);
    EXPECT_EQ(loaded.truth[i].airborne, original.truth[i].airborne);
    EXPECT_NEAR(loaded.truth[i].parts.head.x, original.truth[i].parts.head.x, 1e-6);
    EXPECT_NEAR(loaded.truth[i].parts.foot.y, original.truth[i].parts.foot.y, 1e-6);
  }
  EXPECT_EQ(loaded.seed, original.seed);
}

TEST_F(ClipIoTest, FaultFlagsRoundTrip) {
  ClipSpec spec = small_spec();
  spec.faults.no_arm_swing = true;
  spec.faults.stiff_landing = true;
  save_clip(generate_clip(spec), path("faulty"));
  const Clip loaded = load_clip(path("faulty"));
  EXPECT_TRUE(loaded.faults.no_arm_swing);
  EXPECT_FALSE(loaded.faults.no_crouch);
  EXPECT_TRUE(loaded.faults.stiff_landing);
}

TEST_F(ClipIoTest, CleanSilhouettesAreNotPersisted) {
  // A saved clip is what a camera and an annotator supply: the manifest, the
  // background and one PPM per frame. The noise-free masks are re-rendered
  // from the spec (render_clean_silhouettes), never written.
  save_clip(generate_clip(small_spec()), path("clip"));
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(path("clip"))) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  std::vector<std::string> want = {"background.ppm"};
  for (int i = 0; i < 8; ++i) want.push_back("frame_00" + std::to_string(i) + ".ppm");
  want.push_back("manifest.txt");
  EXPECT_EQ(names, want);
}

TEST_F(ClipIoTest, ClipWithoutTruthLoads) {
  // Real-footage path: frames + background, truth flag 0.
  Clip clip = generate_clip(small_spec());
  clip.truth.clear();
  save_clip(clip, path("raw"));
  const Clip loaded = load_clip(path("raw"));
  EXPECT_TRUE(loaded.truth.empty());
  EXPECT_EQ(loaded.frames.size(), 8u);
}

TEST_F(ClipIoTest, MissingManifestThrows) {
  EXPECT_THROW(load_clip(path("nope")), std::runtime_error);
}

TEST_F(ClipIoTest, CorruptManifestThrows) {
  std::filesystem::create_directories(path("bad"));
  std::ofstream out(path("bad") + "/manifest.txt");
  out << "slj-clip 7\n";
  out.close();
  EXPECT_THROW(load_clip(path("bad")), std::runtime_error);
}

TEST_F(ClipIoTest, TruncatedTruthThrows) {
  const Clip clip = generate_clip(small_spec());
  save_clip(clip, path("trunc"));
  // Chop the manifest in half.
  const std::string mpath = path("trunc") + "/manifest.txt";
  std::ifstream in(mpath);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(mpath, std::ios::trunc);
  out << text.substr(0, text.size() / 2);
  out.close();
  EXPECT_THROW(load_clip(path("trunc")), std::runtime_error);
}

TEST_F(ClipIoTest, AbsurdFrameCountIsRejectedBeforeAllocation) {
  // A flipped digit in the manifest must not become a multi-gigabyte
  // reserve; load_clip caps the claimed frame count up front.
  std::filesystem::create_directories(path("huge"));
  std::ofstream out(path("huge") + "/manifest.txt");
  out << "slj-clip 1\nframes 2000000000\nseed 1\nfaults 0 0 0 0\ntruth 1\n";
  out.close();
  EXPECT_THROW(load_clip(path("huge")), std::runtime_error);
}

TEST_F(ClipIoTest, NegativeFrameCountThrows) {
  std::filesystem::create_directories(path("neg"));
  std::ofstream out(path("neg") + "/manifest.txt");
  out << "slj-clip 1\nframes -3\nseed 1\nfaults 0 0 0 0\ntruth 0\n";
  out.close();
  EXPECT_THROW(load_clip(path("neg")), std::runtime_error);
}

TEST_F(ClipIoTest, ManifestBitFlipsNeverCrash) {
  // Flip each byte of a valid manifest in turn: every variant must either
  // load or throw std::runtime_error — never crash or trip sanitizers.
  save_clip(generate_clip(small_spec(3, 4)), path("flip"));
  const std::string mpath = path("flip") + "/manifest.txt";
  std::ifstream in(mpath, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  in.close();
  int rejected = 0;
  for (std::size_t i = 0; i < text.size(); ++i) {
    std::string mutated = text;
    mutated[i] ^= 0x11;
    std::ofstream out(mpath, std::ios::binary | std::ios::trunc);
    out << mutated;
    out.close();
    try {
      (void)load_clip(path("flip"));
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST_F(ClipIoTest, DatasetRoundTrip) {
  DatasetSpec spec;
  spec.seed = 9;
  spec.train_clip_frames = {6, 6};
  spec.test_clip_frames = {6};
  spec.camera = small_spec().camera;
  const Dataset original = generate_dataset(spec);
  save_dataset(original, path("ds"));
  const Dataset loaded = load_dataset(path("ds"));
  ASSERT_EQ(loaded.train.size(), 2u);
  ASSERT_EQ(loaded.test.size(), 1u);
  EXPECT_EQ(loaded.train[1].frames[3], original.train[1].frames[3]);
  EXPECT_EQ(loaded.test[0].truth[2].pose, original.test[0].truth[2].pose);
}

TEST_F(ClipIoTest, EmptyDatasetDirectoryThrows) {
  std::filesystem::create_directories(path("empty"));
  EXPECT_THROW(load_dataset(path("empty")), std::runtime_error);
}

}  // namespace
}  // namespace slj::synth
