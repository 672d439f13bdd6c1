#include "imaging/morphology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "reference.hpp"

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

// ---- property tests against the reference flood ------------------------------
//
// fill_holes_into floods only the foreground's bounding box plus an open
// ring; tests/reference/ floods the whole frame pixel by pixel. One scratch
// set is reused across every case, so shrinking and growing boxes and frame
// sizes are covered too.

struct ReusedScratch {
  BinaryImage reached;
  std::vector<std::uint32_t> stack;
  BinaryImage out;
};

void expect_matches_reference(const BinaryImage& img, ReusedScratch& scratch,
                              const std::string& label) {
  fill_holes_into(img, scratch.reached, scratch.stack, scratch.out);
  EXPECT_EQ(scratch.out, reference::fill_holes(img)) << label;
}

BinaryImage random_mask(std::mt19937& rng, int w, int h, int percent) {
  BinaryImage img(w, h, 0);
  for (std::uint8_t& v : img.data()) v = static_cast<int>(rng() % 100) < percent ? 1 : 0;
  return img;
}

/// Concentric one-pixel square rings around the centre, every other radius.
BinaryImage nested_rings(int w, int h) {
  BinaryImage img(w, h, 0);
  const int cx = w / 2;
  const int cy = h / 2;
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      const int r = std::max(std::abs(x - cx), std::abs(y - cy));
      img.at(x, y) = r % 2 == 1 ? 1 : 0;
    }
  }
  return img;
}

TEST(FillHoles, MatchesReferenceOnSeededRandomMasks) {
  ReusedScratch scratch;
  for (const std::uint32_t seed : {1u, 2u, 3u, 7u, 42u, 2008u}) {
    std::mt19937 rng(seed);
    for (const auto& [w, h] : {std::pair<int, int>{9, 7}, {33, 20}, {64, 48}, {5, 40}}) {
      for (const int percent : {10, 40, 60, 85}) {
        BinaryImage img = random_mask(rng, w, h, percent);
        // Clear a margin on some masks so the box sits strictly inside.
        if (seed % 2 == 0) {
          for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
              if (x < 2 || y < 2 || x >= w - 2 || y >= h - 2) img.at(x, y) = 0;
            }
          }
        }
        expect_matches_reference(img, scratch,
                                 "seed " + std::to_string(seed) + " " + std::to_string(w) + "x" +
                                     std::to_string(h) + " " + std::to_string(percent) + "%");
      }
    }
  }
}

TEST(FillHoles, MatchesReferenceWhenForegroundTouchesTheEdges) {
  ReusedScratch scratch;
  const int w = 21;
  const int h = 15;
  // A ring with a hole, pushed against each edge in turn: the box's open
  // ring then lies partly off the image.
  for (int edge = 0; edge < 4; ++edge) {
    BinaryImage img(w, h, 0);
    const int x0 = edge == 0 ? 0 : (edge == 1 ? w - 7 : 6);
    const int y0 = edge == 2 ? 0 : (edge == 3 ? h - 7 : 4);
    for (int y = y0; y < y0 + 7; ++y) {
      for (int x = x0; x < x0 + 7; ++x) {
        img.at(x, y) = (x == x0 || x == x0 + 6 || y == y0 || y == y0 + 6) ? 1 : 0;
      }
    }
    expect_matches_reference(img, scratch, "edge " + std::to_string(edge));
  }
  // A frame-wide border ring (all four edges) with holes and an island.
  BinaryImage img(w, h, 0);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      img.at(x, y) = (x == 0 || y == 0 || x == w - 1 || y == h - 1 || x == 10) ? 1 : 0;
    }
  }
  img.at(5, 7) = 1;
  expect_matches_reference(img, scratch, "all four edges");
  // Foreground crossing the frame edge to edge splits the background.
  BinaryImage cross(w, h, 0);
  for (int x = 0; x < w; ++x) cross.at(x, 7) = 1;
  for (int y = 0; y < h; ++y) cross.at(10, y) = 1;
  expect_matches_reference(cross, scratch, "edge-to-edge cross");
}

TEST(FillHoles, MatchesReferenceOnFullEmptyAndNestedMasks) {
  ReusedScratch scratch;
  expect_matches_reference(BinaryImage(17, 11, 1), scratch, "full frame");
  expect_matches_reference(BinaryImage(17, 11, 0), scratch, "empty");
  expect_matches_reference(BinaryImage(0, 0), scratch, "0x0");
  expect_matches_reference(nested_rings(31, 31), scratch, "nested rings 31x31");
  expect_matches_reference(nested_rings(40, 23), scratch, "nested rings 40x23");
  BinaryImage bytes = nested_rings(19, 19);
  for (std::uint8_t& v : bytes.data()) v = v != 0 ? 255 : 0;  // any nonzero byte is foreground
  expect_matches_reference(bytes, scratch, "255-valued rings");
}

TEST(FillHoles, MatchesReferenceOnSingleRowsAndColumns) {
  ReusedScratch scratch;
  std::mt19937 rng(5);
  for (const int n : {1, 2, 3, 16, 33}) {
    for (const int percent : {0, 50, 100}) {
      const std::string label = std::to_string(n) + " " + std::to_string(percent) + "%";
      expect_matches_reference(random_mask(rng, 1, n, percent), scratch, "1x" + label);
      expect_matches_reference(random_mask(rng, n, 1, percent), scratch, label + "x1");
    }
  }
}

}  // namespace
}  // namespace slj
