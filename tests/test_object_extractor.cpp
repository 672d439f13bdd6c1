#include "segmentation/object_extractor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include "imaging/draw.hpp"
#include "reference.hpp"

namespace slj::seg {
namespace {

/// The shipped extraction on fresh scratch (intermediates stay in ws).
struct Extracted {
  FrameWorkspace ws;
  BinaryImage silhouette;
  double max_difference = 0.0;
};

Extracted extract(const ObjectExtractor& ex, const RgbImage& frame) {
  Extracted r;
  r.max_difference = ex.extract_into(frame, r.ws, r.silhouette);
  return r;
}

/// Black studio background with optional noise.
RgbImage studio_background(int w, int h, unsigned seed = 0, double sigma = 0.0) {
  RgbImage img(w, h, {12, 12, 15});
  if (sigma > 0.0) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> noise(0.0, sigma);
    for (auto& p : img.data()) {
      const auto jitter = [&](std::uint8_t v) {
        return static_cast<std::uint8_t>(std::clamp(v + noise(rng), 0.0, 255.0));
      };
      p = {jitter(p.r), jitter(p.g), jitter(p.b)};
    }
  }
  return img;
}

/// Paints a bright disc "object" onto a copy of the background.
RgbImage with_object(const RgbImage& bg, PointF centre, double radius) {
  RgbImage frame = bg;
  BinaryImage mask(bg.width(), bg.height(), 0);
  fill_disc(mask, centre, radius);
  for (int y = 0; y < frame.height(); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      if (mask.at(x, y)) frame.at(x, y) = {180, 150, 120};
    }
  }
  return frame;
}

TEST(ObjectExtractor, ThrowsWithoutBackground) {
  ObjectExtractor ex;
  EXPECT_THROW(extract(ex, RgbImage(8, 8)), std::logic_error);
}

TEST(ObjectExtractor, ThrowsOnFrameSizeMismatch) {
  ObjectExtractor ex;
  ex.set_background(studio_background(8, 8));
  EXPECT_THROW(extract(ex, RgbImage(9, 8)), std::invalid_argument);
}

TEST(ObjectExtractor, NoiseFloorSuppressesPhantomSilhouette) {
  // A near-static scene: the frame differs from the background by a few
  // grey levels of sensor noise only. Without the noise floor the max-shift
  // normalization would rescale that noise so its peak hits 255 and a
  // phantom blob crosses Th_Object.
  const RgbImage bg = studio_background(32, 32);
  RgbImage frame = bg;
  for (int y = 10; y < 16; ++y) {
    for (int x = 10; x < 16; ++x) {
      frame.at(x, y) = {static_cast<std::uint8_t>(bg.at(x, y).r + 3), bg.at(x, y).g,
                        bg.at(x, y).b};
    }
  }
  ObjectExtractor ex;
  ex.set_background(bg);
  const Extracted res = extract(ex, frame);
  EXPECT_GT(res.max_difference, 0.0);
  EXPECT_LT(res.max_difference, ObjectExtractor::kMinMaxDifference);
  EXPECT_EQ(count_foreground(res.ws.raw_mask), 0u) << "noise was rescaled into a phantom mask";
  EXPECT_EQ(count_foreground(res.silhouette), 0u);
}

TEST(ObjectExtractor, NoiseFloorKeepsRealObjects) {
  const RgbImage bg = studio_background(48, 48);
  const RgbImage frame = with_object(bg, {24, 24}, 10.0);
  ObjectExtractor ex;
  ex.set_background(bg);
  const Extracted res = extract(ex, frame);
  EXPECT_GE(res.max_difference, ObjectExtractor::kMinMaxDifference);
  EXPECT_GT(count_foreground(res.silhouette), 0u);
}

TEST(ObjectExtractor, IdenticalFrameYieldsEmptyMask) {
  const RgbImage bg = studio_background(16, 16);
  ObjectExtractor ex;
  ex.set_background(bg);
  const Extracted res = extract(ex, bg);
  EXPECT_DOUBLE_EQ(res.max_difference, 0.0);
  EXPECT_EQ(count_foreground(res.silhouette), 0u);
}

TEST(ObjectExtractor, RecoversBrightDisc) {
  const RgbImage bg = studio_background(48, 48);
  const RgbImage frame = with_object(bg, {24, 24}, 10.0);
  ObjectExtractor ex;
  ex.set_background(bg);
  const Extracted res = extract(ex, frame);

  BinaryImage expected(48, 48, 0);
  fill_disc(expected, {24, 24}, 10.0);
  EXPECT_GT(iou(res.silhouette, expected), 0.85);
}

TEST(ObjectExtractor, NormalizationPutsMaxAt255) {
  const RgbImage bg = studio_background(32, 32);
  const RgbImage frame = with_object(bg, {16, 16}, 6.0);
  // The shipped extractor never builds R; the reference keeps it.
  const reference::ExtractionResult res = reference::extract(bg, frame);
  std::uint8_t max_v = 0;
  for (const auto v : res.normalized.data()) max_v = std::max(max_v, v);
  EXPECT_EQ(max_v, 255);
}

TEST(ObjectExtractor, RawMaskUsesThObjectThreshold) {
  const RgbImage bg = studio_background(32, 32);
  const RgbImage frame = with_object(bg, {16, 16}, 6.0);
  ObjectExtractor ex;
  ex.set_background(bg);
  const Extracted res = extract(ex, frame);
  const GrayImage normalized = reference::extract(bg, frame).normalized;
  EXPECT_EQ(ObjectExtractor::kThObject, 20);  // the paper's Th_Object
  for (int y = 0; y < 32; ++y) {
    for (int x = 0; x < 32; ++x) {
      EXPECT_EQ(res.ws.raw_mask.at(x, y), normalized.at(x, y) > 20 ? 1 : 0);
    }
  }
}

TEST(ObjectExtractor, MedianSmoothingRemovesNoiseSpecks) {
  const RgbImage bg = studio_background(48, 48);
  RgbImage frame = with_object(bg, {24, 24}, 10.0);
  // Sprinkle isolated bright pixels — sensor noise.
  std::mt19937 rng(9);
  for (int i = 0; i < 12; ++i) {
    const int x = static_cast<int>(rng() % 48);
    const int y = static_cast<int>(rng() % 48);
    if (distance(PointF{static_cast<double>(x), static_cast<double>(y)}, PointF{24, 24}) > 14) {
      frame.at(x, y) = {200, 200, 200};
    }
  }
  ObjectExtractor ex;
  ex.set_background(bg);
  const Extracted res = extract(ex, frame);
  // The specks survive in the raw mask but not the final silhouette.
  BinaryImage expected(48, 48, 0);
  fill_disc(expected, {24, 24}, 10.0);
  EXPECT_GT(iou(res.silhouette, expected), 0.80);
}

TEST(ObjectExtractor, KeepLargestRemovesSecondaryBlobs) {
  const RgbImage bg = studio_background(64, 32);
  RgbImage frame = with_object(bg, {20, 16}, 9.0);
  frame = with_object(frame, {52, 16}, 4.0);  // smaller distractor
  ObjectExtractor ex;
  ex.set_background(bg);
  const BinaryImage sil = extract(ex, frame).silhouette;
  // Nothing of the small blob remains.
  EXPECT_EQ(sil.at(52, 16), 0);
  EXPECT_EQ(sil.at(20, 16), 1);
}

TEST(ObjectExtractor, HoleFillClosesInteriorGaps) {
  const RgbImage bg = studio_background(48, 48);
  RgbImage frame = with_object(bg, {24, 24}, 10.0);
  // Punch a dark hole in the object's middle.
  frame.at(24, 24) = bg.at(24, 24);
  frame.at(25, 24) = bg.at(25, 24);
  ObjectExtractor ex;
  ex.set_background(bg);
  const BinaryImage sil = extract(ex, frame).silhouette;
  EXPECT_EQ(sil.at(24, 24), 1);
}

TEST(ObjectExtractor, WorksUnderBackgroundNoise) {
  const RgbImage bg = studio_background(48, 48, 7, 3.0);
  const RgbImage frame = with_object(studio_background(48, 48, 8, 3.0), {24, 24}, 10.0);
  ObjectExtractor ex;
  ex.set_background(bg);
  BinaryImage expected(48, 48, 0);
  fill_disc(expected, {24, 24}, 10.0);
  EXPECT_GT(iou(extract(ex, frame).silhouette, expected), 0.75);
}

// ---- integer-domain difference -----------------------------------------------

RgbImage random_rgb(std::mt19937& rng, int w, int h) {
  RgbImage img(w, h);
  for (Rgb& p : img.data()) {
    p = {static_cast<std::uint8_t>(rng()), static_cast<std::uint8_t>(rng()),
         static_cast<std::uint8_t>(rng())};
  }
  return img;
}

void expect_matches_reference(const RgbImage& background, const RgbImage& frame,
                              FrameWorkspace& ws, const std::string& label) {
  ObjectExtractor ex;
  ex.set_background(background);
  BinaryImage silhouette;
  const double max_d = ex.extract_into(frame, ws, silhouette);
  const reference::ExtractionResult want = reference::extract(background, frame);
  EXPECT_EQ(reference::scaled_difference_mismatches(ws.difference36, want.difference), 0u)
      << label;
  EXPECT_EQ(max_d, want.max_difference) << label;
  EXPECT_EQ(ws.raw_mask, want.raw_mask) << label;
  EXPECT_EQ(ws.smoothed, want.smoothed) << label;
  EXPECT_EQ(silhouette, want.silhouette) << label;
}

TEST(ObjectExtractor, ExtractIntoMatchesReferenceAcrossWindowsAndSizes) {
  // Odd sizes, frames narrower and shorter than the window, and single
  // rows/columns, through one reused workspace. The suite runs on the
  // default, SLJ_SIMD=OFF and AVX2 builds, so every backend's row kernels
  // meet the seed chain here.
  FrameWorkspace ws;
  std::mt19937 rng(11);
  const std::pair<int, int> sizes[] = {{1, 1},   {1, 9},   {13, 1},  {2, 2},
                                       {31, 17}, {65, 33}, {47, 64}};
  for (const auto& [w, h] : sizes) {
    const RgbImage studio = studio_background(w, h, 3, 6.0);
    const RgbImage jumper = with_object(studio_background(w, h, 4, 6.0),
                                        {w * 0.4, h * 0.5}, std::max(1.0, std::min(w, h) / 3.0));
    const RgbImage noise_bg = random_rgb(rng, w, h);
    const RgbImage noise_frame = random_rgb(rng, w, h);
    const std::string label = std::to_string(w) + "x" + std::to_string(h);
    expect_matches_reference(studio, jumper, ws, label + " jumper");
    expect_matches_reference(noise_bg, noise_frame, ws, label + " noise");
  }
}

TEST(ObjectExtractor, ExtractIntoMatchesReferenceOnTallFrames) {
  // Frames taller than the 257 saturated rows a 16-bit column sum holds:
  // the window's column sums cover three rows, so they never come near it.
  // A saturated column against a black plate reaches the largest sums.
  FrameWorkspace ws;
  std::mt19937 rng(12);
  for (const auto& [w, h] : {std::pair<int, int>{3, 300}, {37, 301}, {64, 320}}) {
    RgbImage frame = random_rgb(rng, w, h);
    for (int y = 0; y < h; ++y) frame.at(1, y) = {255, 255, 255};
    const std::string label = std::to_string(w) + "x" + std::to_string(h);
    expect_matches_reference(RgbImage(w, h, {0, 0, 0}), frame, ws, label + " saturated");
    const RgbImage studio = studio_background(w, h, 5, 6.0);
    const RgbImage jumper =
        with_object(studio_background(w, h, 6, 6.0), {w * 0.5, h * 0.6}, w / 3.0);
    expect_matches_reference(studio, jumper, ws, label + " jumper");
  }
}

/// Pixels where T == max T − kMaskMargin: the exact ties of the mask rule,
/// which only the seed's double rounding decides. Zero when the scene is
/// unchanged (the mask is then empty whatever T is).
std::size_t exact_ties(const FrameWorkspace& ws, double max_d) {
  if (!(max_d > 0.0 && max_d >= ObjectExtractor::kMinMaxDifference)) return 0;
  const std::vector<std::uint16_t>& t = ws.difference36.data();
  const int thr = *std::max_element(t.begin(), t.end()) - ObjectExtractor::kMaskMargin;
  return static_cast<std::size_t>(std::count(t.begin(), t.end(), thr));
}

TEST(ObjectExtractor, ExactTieIsDecidedAsTheSeedRounds) {
  // 3×1 against a black plate: T = 18·765 at x = 0 (the maximum, D = 382.5)
  // and 18·296 = 13770 − 8442 at x = 2, where D − (max D − 255) is exactly
  // 20.5 and lround makes it 21 > Th_Object.
  const RgbImage plate(3, 1, {0, 0, 0});
  RgbImage frame = plate;
  frame.at(0, 0) = {255, 255, 255};
  frame.at(2, 0) = {255, 41, 0};
  FrameWorkspace ws;
  ObjectExtractor ex;
  ex.set_background(plate);
  BinaryImage silhouette;
  const double max_d = ex.extract_into(frame, ws, silhouette);
  EXPECT_EQ(max_d, 382.5);
  EXPECT_EQ(ws.difference36.at(2, 0), 13770 - ObjectExtractor::kMaskMargin);
  EXPECT_EQ(exact_ties(ws, max_d), 1u);
  EXPECT_EQ(ws.raw_mask.at(2, 0), 1);
  expect_matches_reference(plate, frame, ws, "3x1 tie");
}

TEST(ObjectExtractor, ExactTiesMatchReferenceOnFewLevelFrames) {
  // Seeded random plates and frames whose bytes take a few levels only, so
  // many window sums coincide and some pixels land exactly on
  // T == max T − 8442. The levels are multiples of 67, a factor of
  // 8442 = 126·67, so such ties are common (32 over these 400 pairs). The
  // mask must still equal the seed chain's there.
  FrameWorkspace ws;
  std::mt19937 rng(26);
  const std::uint8_t levels[] = {0, 67, 134, 201};
  const auto few_level = [&](int w, int h) {
    RgbImage img(w, h);
    for (Rgb& p : img.data()) p = {levels[rng() % 4], levels[rng() % 4], levels[rng() % 4]};
    return img;
  };
  std::size_t ties = 0;
  for (int pair = 0; pair < 400; ++pair) {
    const int w = 1 + static_cast<int>(rng() % 9);
    const int h = 1 + static_cast<int>(rng() % 7);
    const RgbImage plate = few_level(w, h);
    const RgbImage frame = few_level(w, h);
    const std::string label = "pair " + std::to_string(pair) + " " + std::to_string(w) + "x" +
                              std::to_string(h);
    expect_matches_reference(plate, frame, ws, label);
    ObjectExtractor ex;
    ex.set_background(plate);
    BinaryImage silhouette;
    ties += exact_ties(ws, ex.extract_into(frame, ws, silhouette));
  }
  EXPECT_GT(ties, 0u) << "no pair exercised the exact-tie path";
}

}  // namespace
}  // namespace slj::seg
