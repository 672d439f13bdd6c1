#include "segmentation/background_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "reference.hpp"

namespace slj::seg {
namespace {

RgbImage constant_frame(int w, int h, Rgb value) { return RgbImage(w, h, value); }

/// Channel c's window sum at (x, y): the plate's Bave times the area.
int window_sum(const BackgroundModel& model, int c, int x, int y) {
  return model.window_sums_row(y)[c * model.width() + x];
}

/// The paper's Bave at (x, y): the sum over the clamped window's area.
double window_mean(const BackgroundModel& model, int c, int x, int y) {
  const double area = static_cast<double>(BackgroundModel::window_span(x, model.width())) *
                      static_cast<double>(BackgroundModel::window_span(y, model.height()));
  return static_cast<double>(window_sum(model, c, x, y)) / area;
}

TEST(BackgroundModel, EmptyModelHasNoBackground) {
  BackgroundModel model;
  EXPECT_FALSE(model.has_background());
  EXPECT_EQ(model.width(), 0);
  EXPECT_EQ(model.height(), 0);
}

TEST(BackgroundModel, SingleFrameAverageEqualsWindowMean) {
  BackgroundModel model;
  model.set_background(constant_frame(8, 6, {30, 60, 90}));
  EXPECT_TRUE(model.has_background());
  EXPECT_EQ(window_sum(model, 0, 4, 3), 9 * 30);
  EXPECT_DOUBLE_EQ(window_mean(model, 0, 4, 3), 30.0);
  EXPECT_DOUBLE_EQ(window_mean(model, 1, 4, 3), 60.0);
  EXPECT_DOUBLE_EQ(window_mean(model, 2, 4, 3), 90.0);
  // A corner's window is clamped to 2×2.
  EXPECT_EQ(window_sum(model, 2, 0, 0), 4 * 90);
}

TEST(BackgroundModel, DimensionsAvailableBeforeAveraging) {
  BackgroundModel model;
  model.set_background(constant_frame(9, 7, {}));
  EXPECT_EQ(model.width(), 9);
  EXPECT_EQ(model.height(), 7);
}

TEST(BackgroundModel, ResetForgetsFrames) {
  BackgroundModel model;
  model.set_background(constant_frame(4, 4, {50, 50, 50}));
  model.reset();
  EXPECT_FALSE(model.has_background());
  model.set_background(constant_frame(4, 4, {80, 80, 80}));
  EXPECT_DOUBLE_EQ(window_mean(model, 0, 1, 1), 80.0);
}

TEST(BackgroundModel, WindowSmoothsSpatialVariation) {
  RgbImage bg(3, 1, {0, 0, 0});
  bg.at(0, 0) = {90, 0, 0};
  BackgroundModel model;
  model.set_background(bg);
  // Centre pixel's 3x3 (clamped to 3x1) window covers all three pixels.
  EXPECT_DOUBLE_EQ(window_mean(model, 0, 1, 0), 30.0);
}

TEST(BackgroundModel, WindowSpanClampsAtEdges) {
  EXPECT_EQ(BackgroundModel::window_span(0, 1), 1);
  EXPECT_EQ(BackgroundModel::window_span(0, 2), 2);
  EXPECT_EQ(BackgroundModel::window_span(1, 2), 2);
  EXPECT_EQ(BackgroundModel::window_span(0, 5), 2);
  EXPECT_EQ(BackgroundModel::window_span(2, 5), 3);
  EXPECT_EQ(BackgroundModel::window_span(4, 5), 2);
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

/// Every sum / area against the oracle's double mean, bit for bit.
void expect_oracle_means(const BackgroundModel& model, const RgbImage& plate,
                         const std::string& label) {
  const reference::RgbMeans want = reference::window_mean_rgb(plate, BackgroundModel::kWindow);
  ASSERT_EQ(model.width(), plate.width()) << label;
  ASSERT_EQ(model.height(), plate.height()) << label;
  const Image<double>* planes[] = {&want.r, &want.g, &want.b};
  std::size_t mismatches = 0;
  for (int y = 0; y < plate.height(); ++y) {
    for (int x = 0; x < plate.width(); ++x) {
      for (int c = 0; c < 3; ++c) {
        const double got = window_mean(model, c, x, y);
        const double expected = planes[c]->at(x, y);
        if (std::memcmp(&got, &expected, sizeof got) != 0) ++mismatches;
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << label;
}

/// set_background, a second set_background over it, then reset() and a
/// fresh plate, each checked bit for bit against the summed-area oracle.
void expect_matches_oracle(int w, int h, std::mt19937& rng) {
  const std::string label = std::to_string(w) + "x" + std::to_string(h);
  const std::vector<RgbImage> frames = {random_rgb(rng, w, h), random_rgb(rng, w, h),
                                        random_rgb(rng, w, h)};
  BackgroundModel model;
  model.set_background(frames[0]);
  expect_oracle_means(model, frames[0], label + " first plate");
  model.set_background(frames[1]);
  expect_oracle_means(model, frames[1], label + " replaced plate");
  model.reset();
  model.set_background(frames[2]);
  expect_oracle_means(model, frames[2], label + " after reset");
}

TEST(BackgroundModel, WindowMeansMatchSummedAreaOracleBitForBit) {
  // Single pixels, rows and columns, frames narrower and shorter than the
  // window, an odd size and the paper's 288×160 frame. The suite runs on
  // the default, SLJ_SIMD=OFF and AVX2 builds, so every backend's row
  // kernels meet the oracle here.
  std::mt19937 rng(31);
  const std::pair<int, int> sizes[] = {{1, 1}, {1, 9}, {13, 1}, {2, 2}, {31, 17}, {288, 160}};
  for (const auto& [w, h] : sizes) expect_matches_oracle(w, h, rng);
}

TEST(BackgroundModel, WindowMeansMatchOracleOnTallFrames) {
  // Plates taller than the 257 saturated rows a 16-bit column sum holds:
  // the window's column sums cover three rows, so they never come near it.
  std::mt19937 rng(32);
  for (const auto& [w, h] : {std::pair<int, int>{3, 300}, {17, 301}, {4, 320}}) {
    expect_matches_oracle(w, h, rng);
  }
  // Saturated plates reach the largest window sums, 9 · 255.
  const RgbImage white(4, 320, {255, 255, 255});
  BackgroundModel model;
  model.set_background(white);
  expect_oracle_means(model, white, "saturated 4x320");
}

}  // namespace
}  // namespace slj::seg
