#include "imaging/filters.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "reference.hpp"

namespace slj {
namespace {

using reference::median_filter;
using reference::median_filter_binary;

/// The shipped binary median on fresh scratch.
BinaryImage binary_median(const BinaryImage& img, int k) {
  std::vector<std::uint16_t> colsum;
  BinaryImage out;
  median_filter_binary_into(img, k, colsum, out);
  return out;
}

TEST(MedianFilter, ConstantImageIsFixedPoint) {
  GrayImage img(6, 6, 42);
  EXPECT_EQ(median_filter(img, 3), img);
  EXPECT_EQ(median_filter(img, 5), img);
}

TEST(MedianFilter, RemovesSaltNoiseFromFlatRegion) {
  GrayImage img(7, 7, 10);
  img.at(3, 3) = 255;  // single hot pixel
  const GrayImage out = median_filter(img, 3);
  EXPECT_EQ(out.at(3, 3), 10);
}

TEST(MedianFilter, PreservesLargeStep) {
  // A vertical edge through the middle must survive a 3x3 median.
  GrayImage img(8, 8, 0);
  for (int y = 0; y < 8; ++y) {
    for (int x = 4; x < 8; ++x) img.at(x, y) = 200;
  }
  const GrayImage out = median_filter(img, 3);
  EXPECT_EQ(out.at(1, 4), 0);
  EXPECT_EQ(out.at(6, 4), 200);
}

TEST(MedianFilter, EvenWindowThrows) {
  GrayImage img(4, 4);
  EXPECT_THROW(median_filter(img, 4), std::invalid_argument);
  EXPECT_THROW(median_filter(img, 0), std::invalid_argument);
}

class BinaryMedianEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(BinaryMedianEquivalence, MatchesGrayscaleMedianOn01Images) {
  const int k = GetParam();
  std::mt19937 rng(static_cast<unsigned>(1000 + k));
  BinaryImage mask(13, 9);
  for (auto& v : mask.data()) v = rng() % 3 == 0 ? 1 : 0;
  const BinaryImage fast = binary_median(mask, k);
  const BinaryImage sat = median_filter_binary(mask, k);
  const GrayImage slow = median_filter(mask, k);
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      ASSERT_EQ(fast.at(x, y), slow.at(x, y)) << "k=" << k << " at (" << x << "," << y << ")";
      ASSERT_EQ(sat.at(x, y), slow.at(x, y)) << "k=" << k << " at (" << x << "," << y << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, BinaryMedianEquivalence, ::testing::Values(1, 3, 5, 7));

TEST(BinaryMedian, FillsSmallHole) {
  BinaryImage mask(7, 7, 1);
  mask.at(3, 3) = 0;  // pinhole
  const BinaryImage out = binary_median(mask, 3);
  EXPECT_EQ(out.at(3, 3), 1);
}

TEST(BinaryMedian, ErasesIsolatedSpeck) {
  BinaryImage mask(7, 7, 0);
  mask.at(3, 3) = 1;
  const BinaryImage out = binary_median(mask, 3);
  EXPECT_EQ(count_foreground(out), 0u);
}

TEST(BinaryMedian, IntoTakesOddWindowsFromOneTo127Only) {
  std::mt19937 rng(5);
  BinaryImage mask(9, 5);
  for (auto& v : mask.data()) v = rng() % 2;
  std::vector<std::uint16_t> colsum;
  BinaryImage out;
  for (const int k : {0, -1, 2, 128, 129}) {
    EXPECT_THROW(median_filter_binary_into(mask, k, colsum, out), std::invalid_argument)
        << "k " << k;
  }
  for (const int k : {1, 127}) {
    median_filter_binary_into(mask, k, colsum, out);
    EXPECT_EQ(out, median_filter_binary(mask, k)) << "k " << k;
  }
}

TEST(BinaryMedian, WindowOneIsIdentity) {
  std::mt19937 rng(4);
  BinaryImage mask(9, 5);
  for (auto& v : mask.data()) v = rng() % 2;
  EXPECT_EQ(binary_median(mask, 1), mask);
}

}  // namespace
}  // namespace slj
