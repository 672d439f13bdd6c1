#include "imaging/connected.hpp"

#include <gtest/gtest.h>

#include "imaging/frame_workspace.hpp"

namespace slj {
namespace {

TEST(LabelComponents, EmptyImageHasNoComponents) {
  const Labeling lab = label_components(BinaryImage(5, 5, 0));
  EXPECT_TRUE(lab.components.empty());
}

TEST(LabelComponents, SingleBlobStats) {
  BinaryImage img(6, 6, 0);
  for (int y = 2; y <= 3; ++y) {
    for (int x = 1; x <= 4; ++x) img.at(x, y) = 1;
  }
  const Labeling lab = label_components(img);
  ASSERT_EQ(lab.components.size(), 1u);
  const ComponentStats& c = lab.components.front();
  EXPECT_EQ(c.area, 8u);
  EXPECT_EQ(c.min, (PointI{1, 2}));
  EXPECT_EQ(c.max, (PointI{4, 3}));
  EXPECT_DOUBLE_EQ(c.centroid.x, 2.5);
  EXPECT_DOUBLE_EQ(c.centroid.y, 2.5);
}

TEST(LabelComponents, DiagonalTouchMergesOnlyWith8Connectivity) {
  BinaryImage img(4, 4, 0);
  img.at(0, 0) = 1;
  img.at(1, 1) = 1;
  EXPECT_EQ(label_components(img, true).components.size(), 1u);
  EXPECT_EQ(label_components(img, false).components.size(), 2u);
}

TEST(LabelComponents, SeparateBlobsGetDistinctLabels) {
  BinaryImage img(7, 3, 0);
  img.at(0, 0) = 1;
  img.at(3, 1) = 1;
  img.at(6, 2) = 1;
  const Labeling lab = label_components(img);
  ASSERT_EQ(lab.components.size(), 3u);
  EXPECT_NE(lab.labels.at(0, 0), lab.labels.at(3, 1));
  EXPECT_NE(lab.labels.at(3, 1), lab.labels.at(6, 2));
}

TEST(LabelComponents, BackgroundIsZero) {
  BinaryImage img(3, 3, 0);
  img.at(1, 1) = 1;
  const Labeling lab = label_components(img);
  EXPECT_EQ(lab.labels.at(0, 0), 0);
  EXPECT_GT(lab.labels.at(1, 1), 0);
}

TEST(LargestComponent, KeepsOnlyBiggest) {
  BinaryImage img(10, 3, 0);
  // Big blob: 6 pixels; small blob: 2.
  for (int x = 0; x < 6; ++x) img.at(x, 0) = 1;
  img.at(8, 2) = img.at(9, 2) = 1;
  FrameWorkspace ws;
  BinaryImage out;
  largest_component_into(img, true, ws.labeling, ws.pixel_stack, out);
  EXPECT_EQ(count_foreground(out), 6u);
  EXPECT_EQ(out.at(8, 2), 0);
  EXPECT_EQ(out.at(0, 0), 1);
}

TEST(LargestComponent, EmptyInputGivesEmptyMask) {
  FrameWorkspace ws;
  BinaryImage out;
  largest_component_into(BinaryImage(4, 4, 0), true, ws.labeling, ws.pixel_stack, out);
  EXPECT_EQ(count_foreground(out), 0u);
}

TEST(ComponentCount, CountsBoth) {
  BinaryImage img(5, 5, 0);
  img.at(0, 0) = 1;
  img.at(4, 4) = 1;
  EXPECT_EQ(component_count(img), 2u);
}

}  // namespace
}  // namespace slj
