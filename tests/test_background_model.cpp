#include "segmentation/background_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace slj::seg {
namespace {

RgbImage constant_frame(int w, int h, Rgb value) { return RgbImage(w, h, value); }

TEST(BackgroundModel, ThrowsOnEvenWindow) {
  EXPECT_THROW(BackgroundModel(2), std::invalid_argument);
  EXPECT_THROW(BackgroundModel(0), std::invalid_argument);
}

TEST(BackgroundModel, EmptyModelHasNoBackground) {
  BackgroundModel model(3);
  EXPECT_FALSE(model.has_background());
  EXPECT_THROW(model.averaged(), std::logic_error);
}

TEST(BackgroundModel, SingleFrameAverageEqualsWindowMean) {
  BackgroundModel model(3);
  model.set_background(constant_frame(8, 6, {30, 60, 90}));
  EXPECT_TRUE(model.has_background());
  const RgbMeans& m = model.averaged();
  EXPECT_DOUBLE_EQ(m.r.at(4, 3), 30.0);
  EXPECT_DOUBLE_EQ(m.g.at(4, 3), 60.0);
  EXPECT_DOUBLE_EQ(m.b.at(4, 3), 90.0);
}

TEST(BackgroundModel, AccumulationAveragesFrames) {
  BackgroundModel model(1);
  model.accumulate(constant_frame(4, 4, {10, 10, 10}));
  model.accumulate(constant_frame(4, 4, {30, 30, 30}));
  const RgbMeans& m = model.averaged();
  EXPECT_DOUBLE_EQ(m.r.at(2, 2), 20.0);
}

TEST(BackgroundModel, MismatchedFrameSizeThrows) {
  BackgroundModel model(3);
  model.accumulate(constant_frame(4, 4, {}));
  EXPECT_THROW(model.accumulate(constant_frame(5, 4, {})), std::invalid_argument);
}

TEST(BackgroundModel, DimensionsAvailableBeforeAveraging) {
  BackgroundModel model(3);
  model.set_background(constant_frame(9, 7, {}));
  EXPECT_EQ(model.width(), 9);
  EXPECT_EQ(model.height(), 7);
}

TEST(BackgroundModel, ResetForgetsFrames) {
  BackgroundModel model(3);
  model.set_background(constant_frame(4, 4, {50, 50, 50}));
  model.reset();
  EXPECT_FALSE(model.has_background());
  model.set_background(constant_frame(4, 4, {80, 80, 80}));
  EXPECT_DOUBLE_EQ(model.averaged().r.at(1, 1), 80.0);
}

TEST(BackgroundModel, WindowSmoothsSpatialVariation) {
  RgbImage bg(3, 1, {0, 0, 0});
  bg.at(0, 0) = {90, 0, 0};
  BackgroundModel model(3);
  model.set_background(bg);
  // Centre pixel's 3x3 (clamped to 3x1) window covers all three pixels.
  EXPECT_DOUBLE_EQ(model.averaged().r.at(1, 0), 30.0);
}

// ---- bit parity with the summed-area-table oracle ---------------------------

RgbImage random_rgb(std::mt19937& rng, int w, int h) {
  RgbImage img(w, h);
  for (Rgb& p : img.data()) {
    p = {static_cast<std::uint8_t>(rng()), static_cast<std::uint8_t>(rng()),
         static_cast<std::uint8_t>(rng())};
  }
  return img;
}

/// The seed's plate: per-channel double sums of the frames, scaled by
/// 1 / count and rounded half up to 8 bits.
RgbImage seed_plate(const std::vector<RgbImage>& frames) {
  const int w = frames.front().width();
  const int h = frames.front().height();
  std::vector<double> r(frames.front().size()), g(r.size()), b(r.size());
  for (const RgbImage& f : frames) {
    for (std::size_t i = 0; i < f.size(); ++i) {
      r[i] += f.data()[i].r;
      g[i] += f.data()[i].g;
      b[i] += f.data()[i].b;
    }
  }
  const double inv = 1.0 / static_cast<double>(frames.size());
  RgbImage plate(w, h);
  for (std::size_t i = 0; i < plate.size(); ++i) {
    plate.data()[i] = {static_cast<std::uint8_t>(r[i] * inv + 0.5),
                       static_cast<std::uint8_t>(g[i] * inv + 0.5),
                       static_cast<std::uint8_t>(b[i] * inv + 0.5)};
  }
  return plate;
}

bool same_bits(const Image<double>& got, const Image<double>& want) {
  return got.width() == want.width() && got.height() == want.height() &&
         std::memcmp(got.data().data(), want.data().data(), got.size() * sizeof(double)) == 0;
}

void expect_oracle_means(const BackgroundModel& model, const std::vector<RgbImage>& frames,
                         const std::string& label) {
  const RgbMeans want = window_mean_rgb(seed_plate(frames), model.window());
  const RgbMeans& got = model.averaged();
  EXPECT_TRUE(same_bits(got.r, want.r)) << label << " r";
  EXPECT_TRUE(same_bits(got.g, want.g)) << label << " g";
  EXPECT_TRUE(same_bits(got.b, want.b)) << label << " b";
}

/// set_background, two and three accumulated frames, then reset() and a
/// fresh plate, each checked bit for bit against window_mean_rgb.
void expect_matches_oracle(int w, int h, int window, std::mt19937& rng) {
  const std::string label =
      std::to_string(w) + "x" + std::to_string(h) + " window " + std::to_string(window);
  const std::vector<RgbImage> frames = {random_rgb(rng, w, h), random_rgb(rng, w, h),
                                        random_rgb(rng, w, h), random_rgb(rng, w, h)};
  BackgroundModel model(window);
  model.set_background(frames[0]);
  expect_oracle_means(model, {frames[0]}, label + " one frame");
  model.accumulate(frames[1]);
  expect_oracle_means(model, {frames[0], frames[1]}, label + " two frames");
  model.accumulate(frames[2]);
  expect_oracle_means(model, {frames[0], frames[1], frames[2]}, label + " three frames");
  model.reset();
  model.accumulate(frames[3]);
  expect_oracle_means(model, {frames[3]}, label + " after reset");
  model.accumulate(frames[0]);
  expect_oracle_means(model, {frames[3], frames[0]}, label + " two frames after reset");
}

TEST(BackgroundModel, WindowMeansMatchSummedAreaOracleBitForBit) {
  // Tabled windows (1, 3, 5), dividing ones (7, 9) and a window wider than
  // the frame, on single pixels, rows and columns, an odd size and the
  // paper's 288×160 frame. The suite runs on the default, SLJ_SIMD=OFF and
  // AVX2 builds, so every backend's row kernels meet the oracle here.
  std::mt19937 rng(31);
  const std::pair<int, int> sizes[] = {{1, 1}, {1, 9}, {13, 1}, {31, 17}, {288, 160}};
  for (const auto& [w, h] : sizes) {
    for (const int window : {1, 3, 5, 7, 9, 2 * std::max(w, h) + 1}) {
      expect_matches_oracle(w, h, window, rng);
    }
  }
}

TEST(BackgroundModel, WindowMeansMatchOracleAroundTheColumnSumLimit) {
  // 257 rows fill a 16-bit column sum exactly (257 · 255 = 65535); a window
  // and plate both taller than that take window_mean_rgb itself.
  std::mt19937 rng(32);
  for (const auto& [h, window] : {std::pair<int, int>{257, 259}, {259, 259}, {258, 301}}) {
    expect_matches_oracle(3, h, window, rng);
  }
  // Saturated columns reach the largest sums the 16-bit walk can hold.
  RgbImage white(4, 257, {255, 255, 255});
  BackgroundModel model(259);
  model.set_background(white);
  expect_oracle_means(model, {white}, "saturated 4x257 window 259");
}

}  // namespace
}  // namespace slj::seg
