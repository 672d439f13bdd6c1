#include "imaging/morphology.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace slj {
namespace {

// The shipped hole fill on fresh scratch.
BinaryImage fill_holes(const BinaryImage& img) {
  BinaryImage reached;
  std::vector<std::uint32_t> stack;
  BinaryImage out;
  fill_holes_into(img, reached, stack, out);
  return out;
}

TEST(FillHoles, FillsEnclosedBackground) {
  // A ring with a hollow centre.
  BinaryImage img(7, 7, 0);
  for (int i = 1; i <= 5; ++i) {
    img.at(i, 1) = img.at(i, 5) = 1;
    img.at(1, i) = img.at(5, i) = 1;
  }
  const BinaryImage filled = fill_holes(img);
  for (int y = 2; y <= 4; ++y) {
    for (int x = 2; x <= 4; ++x) EXPECT_EQ(filled.at(x, y), 1);
  }
  // Outside stays background.
  EXPECT_EQ(filled.at(0, 0), 0);
  EXPECT_EQ(filled.at(6, 6), 0);
}

TEST(FillHoles, LeavesOpenConcavityAlone) {
  // A 'U' shape: the inner column is connected to the border at the top.
  BinaryImage img(5, 5, 0);
  for (int y = 0; y < 5; ++y) {
    img.at(1, y) = 1;
    img.at(3, y) = 1;
  }
  for (int x = 1; x <= 3; ++x) img.at(x, 4) = 1;
  const BinaryImage filled = fill_holes(img);
  EXPECT_EQ(filled.at(2, 0), 0);  // mouth of the U stays open
  EXPECT_EQ(filled.at(2, 2), 0);
}

TEST(FillHoles, NoForegroundNoChange) {
  BinaryImage img(4, 4, 0);
  EXPECT_EQ(fill_holes(img), img);
}

TEST(FillHoles, FullForegroundUnchanged) {
  BinaryImage img(4, 4, 1);
  EXPECT_EQ(fill_holes(img), img);
}

}  // namespace
}  // namespace slj
