#include "thinning/zhang_suen.hpp"

#include <gtest/gtest.h>

#include <random>

#include "imaging/connected.hpp"
#include "imaging/draw.hpp"
#include "reference.hpp"

namespace slj::thin {
namespace {

// The shipped thinning on fresh scratch.
BinaryImage zhang_suen_thin(const BinaryImage& img, ThinningStats* stats = nullptr) {
  FrameWorkspace ws;
  BinaryImage out;
  zhang_suen_thin_into(img, ws, out, stats);
  return out;
}

BinaryImage filled_rect(int w, int h, int x0, int y0, int x1, int y1) {
  BinaryImage img(w, h, 0);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) img.at(x, y) = 1;
  }
  return img;
}

TEST(ZhangSuen, EmptyImageStaysEmpty) {
  ThinningStats stats;
  const BinaryImage out = zhang_suen_thin(BinaryImage(10, 10, 0), &stats);
  EXPECT_EQ(count_foreground(out), 0u);
  EXPECT_EQ(stats.removed, 0u);
}

TEST(ZhangSuen, SinglePixelSurvives) {
  BinaryImage img(5, 5, 0);
  img.at(2, 2) = 1;
  const BinaryImage out = zhang_suen_thin(img);
  EXPECT_EQ(out, img);
}

TEST(ZhangSuen, OnePixelLineIsFixedPoint) {
  BinaryImage img(20, 5, 0);
  for (int x = 2; x < 18; ++x) img.at(x, 2) = 1;
  const BinaryImage out = zhang_suen_thin(img);
  EXPECT_EQ(out, img);
}

TEST(ZhangSuen, ThickBarThinsToThinLine) {
  const BinaryImage img = filled_rect(30, 12, 3, 3, 26, 8);  // 24x6 bar
  const BinaryImage out = zhang_suen_thin(img);
  // Thinned result is much smaller and lies inside the original.
  EXPECT_LT(count_foreground(out), count_foreground(img) / 3);
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 30; ++x) {
      if (out.at(x, y)) EXPECT_TRUE(img.at(x, y));
    }
  }
  // Roughly one pixel wide: every skeleton pixel has few neighbours.
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 30; ++x) {
      if (out.at(x, y)) EXPECT_LE(reference::neighbour_count(out, x, y), 2);
    }
  }
}

TEST(ZhangSuen, SquareThinsToSmallCore) {
  const BinaryImage img = filled_rect(20, 20, 4, 4, 15, 15);
  const BinaryImage out = zhang_suen_thin(img);
  EXPECT_GT(count_foreground(out), 0u);
  EXPECT_LT(count_foreground(out), 30u);
}

TEST(ZhangSuen, IsIdempotent) {
  const BinaryImage img = filled_rect(30, 14, 2, 2, 27, 11);
  const BinaryImage once = zhang_suen_thin(img);
  const BinaryImage twice = zhang_suen_thin(once);
  EXPECT_EQ(once, twice);
}

TEST(ZhangSuen, StatsCountRemovedPixels) {
  const BinaryImage img = filled_rect(16, 10, 2, 2, 13, 7);
  ThinningStats stats;
  const BinaryImage out = zhang_suen_thin(img, &stats);
  EXPECT_EQ(stats.removed, count_foreground(img) - count_foreground(out));
  EXPECT_GE(stats.iterations, 1);
}

TEST(ZhangSuen, PassRemovesAtMostBorder) {
  BinaryImage img = filled_rect(16, 16, 2, 2, 13, 13);
  const std::size_t before = count_foreground(img);
  const std::size_t removed = reference::zhang_suen_pass(img);
  EXPECT_EQ(before - count_foreground(img), removed);
  // Interior pixels cannot be deleted in the first pass.
  EXPECT_TRUE(img.at(7, 7));
}

class ThinningConnectivity : public ::testing::TestWithParam<unsigned> {};

TEST_P(ThinningConnectivity, PreservesComponentCountOfBlobs) {
  // Random blobs from overlapping discs: thinning must not split or merge
  // 8-connected components.
  std::mt19937 rng(GetParam());
  BinaryImage img(64, 48, 0);
  std::uniform_int_distribution<int> cx(8, 55), cy(8, 39), r(3, 7);
  for (int i = 0; i < 6; ++i) {
    fill_disc(img, {static_cast<double>(cx(rng)), static_cast<double>(cy(rng))},
              static_cast<double>(r(rng)));
  }
  const std::size_t before = component_count(img, true);
  const BinaryImage out = zhang_suen_thin(img);
  EXPECT_EQ(component_count(out, true), before);
}

TEST_P(ThinningConnectivity, SkeletonIsSubsetOfInput) {
  std::mt19937 rng(GetParam() + 1000);
  BinaryImage img(48, 48, 0);
  std::uniform_int_distribution<int> c(6, 41), r(3, 8);
  for (int i = 0; i < 5; ++i) {
    fill_capsule(img, {static_cast<double>(c(rng)), static_cast<double>(c(rng))},
                 {static_cast<double>(c(rng)), static_cast<double>(c(rng))},
                 static_cast<double>(r(rng)));
  }
  const BinaryImage out = zhang_suen_thin(img);
  for (std::size_t i = 0; i < img.size(); ++i) {
    if (out.data()[i]) EXPECT_TRUE(img.data()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThinningConnectivity,
                         ::testing::Values(1u, 7u, 13u, 42u, 99u, 123u, 2024u, 31337u));

TEST(NeighbourFunctions, CountAndTransitions) {
  BinaryImage img(3, 3, 0);
  img.at(1, 1) = 1;
  img.at(1, 0) = 1;  // north
  img.at(2, 1) = 1;  // east
  EXPECT_EQ(reference::neighbour_count(img, 1, 1), 2);
  // Ring around centre: P2=1,P3=0,P4=1,rest 0 → transitions 0->1 occur at
  // P9->P2? P2=1 preceded by P9=0 counts once, P3->P4 counts once = 2.
  EXPECT_EQ(reference::transition_count(img, 1, 1), 2);
}

TEST(NeighbourFunctions, FullRing) {
  BinaryImage img(3, 3, 1);
  EXPECT_EQ(reference::neighbour_count(img, 1, 1), 8);
  EXPECT_EQ(reference::transition_count(img, 1, 1), 0);
}

}  // namespace
}  // namespace slj::thin
