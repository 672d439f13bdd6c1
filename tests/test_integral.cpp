// The summed-area-table oracles in tests/reference/ (IntegralImage and the
// window means built on it) against brute force.
#include <gtest/gtest.h>

#include <random>

#include "reference.hpp"

namespace slj {
namespace {

using reference::IntegralImage;
using reference::RgbMeans;
using reference::window_mean_rgb;

TEST(IntegralImage, SumMatchesBruteForceOnKnownImage) {
  GrayImage img(4, 3);
  std::uint8_t v = 1;
  for (auto& p : img.data()) p = v++;
  IntegralImage integral(img.width(), img.height(),
                         [&](int x, int y) { return static_cast<double>(img.at(x, y)); });
  // whole image: 1+2+...+12 = 78
  EXPECT_DOUBLE_EQ(integral.sum(0, 0, 3, 2), 78.0);
  // single pixel
  EXPECT_DOUBLE_EQ(integral.sum(2, 1, 2, 1), static_cast<double>(img.at(2, 1)));
  // 2x2 block at origin: 1+2+5+6
  EXPECT_DOUBLE_EQ(integral.sum(0, 0, 1, 1), 14.0);
}

TEST(IntegralImage, SumClampsOutOfRangeRectangles) {
  GrayImage img(3, 3, 1);
  IntegralImage integral(3, 3, [&](int x, int y) { return static_cast<double>(img.at(x, y)); });
  EXPECT_DOUBLE_EQ(integral.sum(-5, -5, 10, 10), 9.0);
  EXPECT_DOUBLE_EQ(integral.sum(5, 5, 10, 10), 0.0);  // fully outside
  EXPECT_DOUBLE_EQ(integral.sum(2, 2, 1, 1), 0.0);    // inverted rect
}

struct WindowMeanCase {
  int width, height, n;
};

class WindowMeanProperty : public ::testing::TestWithParam<WindowMeanCase> {};

TEST_P(WindowMeanProperty, MatchesBruteForce) {
  const auto [w, h, n] = GetParam();
  std::mt19937 rng(77 + static_cast<unsigned>(w * 31 + h * 7 + n));
  RgbImage img(w, h);
  for (auto& p : img.data()) {
    p = {static_cast<std::uint8_t>(rng() % 256), static_cast<std::uint8_t>(rng() % 256),
         static_cast<std::uint8_t>(rng() % 256)};
  }

  const RgbMeans fast = window_mean_rgb(img, n);
  const int half = n / 2;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      double sum_r = 0.0, sum_g = 0.0, sum_b = 0.0;
      int count = 0;
      for (int dy = -half; dy <= half; ++dy) {
        for (int dx = -half; dx <= half; ++dx) {
          if (img.in_bounds(x + dx, y + dy)) {
            sum_r += img.at(x + dx, y + dy).r;
            sum_g += img.at(x + dx, y + dy).g;
            sum_b += img.at(x + dx, y + dy).b;
            ++count;
          }
        }
      }
      ASSERT_NEAR(fast.r.at(x, y), sum_r / count, 1e-6) << "r at (" << x << "," << y << ")";
      ASSERT_NEAR(fast.g.at(x, y), sum_g / count, 1e-6) << "g at (" << x << "," << y << ")";
      ASSERT_NEAR(fast.b.at(x, y), sum_b / count, 1e-6) << "b at (" << x << "," << y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, WindowMeanProperty,
                         ::testing::Values(WindowMeanCase{8, 8, 1}, WindowMeanCase{8, 8, 3},
                                           WindowMeanCase{16, 9, 5}, WindowMeanCase{5, 17, 7},
                                           WindowMeanCase{1, 1, 3}, WindowMeanCase{2, 9, 9}));

TEST(WindowMean, EvenOrNonPositiveWindowThrows) {
  RgbImage img(4, 4);
  EXPECT_THROW(window_mean_rgb(img, 2), std::invalid_argument);
  EXPECT_THROW(window_mean_rgb(img, 0), std::invalid_argument);
  EXPECT_THROW(window_mean_rgb(img, -3), std::invalid_argument);
}

TEST(WindowMeanRgb, ChannelsAreIndependent) {
  RgbImage img(5, 5, Rgb{10, 20, 30});
  const RgbMeans means = window_mean_rgb(img, 3);
  for (int y = 0; y < 5; ++y) {
    for (int x = 0; x < 5; ++x) {
      EXPECT_DOUBLE_EQ(means.r.at(x, y), 10.0);
      EXPECT_DOUBLE_EQ(means.g.at(x, y), 20.0);
      EXPECT_DOUBLE_EQ(means.b.at(x, y), 30.0);
    }
  }
}

TEST(WindowMeanRgb, WindowOneIsIdentity) {
  RgbImage img(3, 3);
  std::mt19937 rng(3);
  for (auto& p : img.data()) {
    p = {static_cast<std::uint8_t>(rng() % 256), static_cast<std::uint8_t>(rng() % 256),
         static_cast<std::uint8_t>(rng() % 256)};
  }
  const RgbMeans means = window_mean_rgb(img, 1);
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) {
      EXPECT_DOUBLE_EQ(means.r.at(x, y), img.at(x, y).r);
      EXPECT_DOUBLE_EQ(means.g.at(x, y), img.at(x, y).g);
      EXPECT_DOUBLE_EQ(means.b.at(x, y), img.at(x, y).b);
    }
  }
}

}  // namespace
}  // namespace slj
