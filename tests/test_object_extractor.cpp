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

TEST(ObjectExtractor, RejectsEvenMedianWindow) {
  ExtractorParams params;
  params.median_window = 4;
  EXPECT_THROW(ObjectExtractor{params}, std::invalid_argument);
}

TEST(ObjectExtractor, RejectsInvalidWindow) {
  for (const int window : {0, -1, 2, 4}) {
    ExtractorParams params;
    params.window = window;
    EXPECT_THROW(ObjectExtractor{params}, std::invalid_argument) << "window " << window;
  }
}

TEST(ObjectExtractor, RejectsOutOfRangeThObject) {
  for (const int th : {-1, 256, 1000}) {
    ExtractorParams params;
    params.th_object = th;
    EXPECT_THROW(ObjectExtractor{params}, std::invalid_argument) << "th_object " << th;
  }
  // Boundary values are legal.
  ExtractorParams lo;
  lo.th_object = 0;
  EXPECT_NO_THROW(ObjectExtractor{lo});
  ExtractorParams hi;
  hi.th_object = 255;
  EXPECT_NO_THROW(ObjectExtractor{hi});
}

TEST(ObjectExtractor, RejectsNegativeNoiseFloor) {
  ExtractorParams params;
  params.min_max_difference = -1.0;
  EXPECT_THROW(ObjectExtractor{params}, std::invalid_argument);
}

TEST(ObjectExtractor, NoiseFloorSuppressesPhantomSilhouette) {
  // A near-static scene: the frame differs from the background by a few
  // grey levels of sensor noise only. Without the noise floor the max-shift
  // normalization rescales that noise so its peak hits 255 and a phantom
  // blob crosses Th_Object.
  const RgbImage bg = studio_background(32, 32);
  RgbImage frame = bg;
  for (int y = 10; y < 16; ++y) {
    for (int x = 10; x < 16; ++x) {
      frame.at(x, y) = {static_cast<std::uint8_t>(bg.at(x, y).r + 3), bg.at(x, y).g,
                        bg.at(x, y).b};
    }
  }
  ObjectExtractor ex;  // default min_max_difference = 12
  ex.set_background(bg);
  const Extracted res = extract(ex, frame);
  EXPECT_GT(res.max_difference, 0.0);
  EXPECT_LT(res.max_difference, ex.params().min_max_difference);
  EXPECT_EQ(count_foreground(res.ws.raw_mask), 0u) << "noise was rescaled into a phantom mask";
  EXPECT_EQ(count_foreground(res.silhouette), 0u);

  // The same noise pattern with the floor disabled reproduces the old
  // behaviour — a phantom silhouette — pinning that the guard is what
  // suppresses it.
  ExtractorParams no_floor;
  no_floor.min_max_difference = 0.0;
  ObjectExtractor ex_off(no_floor);
  ex_off.set_background(bg);
  EXPECT_GT(count_foreground(extract(ex_off, frame).ws.raw_mask), 0u);
}

TEST(ObjectExtractor, NoiseFloorKeepsRealObjects) {
  const RgbImage bg = studio_background(48, 48);
  const RgbImage frame = with_object(bg, {24, 24}, 10.0);
  ObjectExtractor ex;
  ex.set_background(bg);
  const Extracted res = extract(ex, frame);
  EXPECT_GE(res.max_difference, ex.params().min_max_difference);
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
  const reference::ExtractionResult res = reference::extract(ExtractorParams{}, bg, frame);
  std::uint8_t max_v = 0;
  for (const auto v : res.normalized.data()) max_v = std::max(max_v, v);
  EXPECT_EQ(max_v, 255);
}

TEST(ObjectExtractor, RawMaskUsesThObjectThreshold) {
  const RgbImage bg = studio_background(32, 32);
  const RgbImage frame = with_object(bg, {16, 16}, 6.0);
  ExtractorParams params;
  params.th_object = 20;
  ObjectExtractor ex(params);
  ex.set_background(bg);
  const Extracted res = extract(ex, frame);
  const GrayImage normalized = reference::extract(params, bg, frame).normalized;
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

// ---- integer-domain window means ---------------------------------------------

TEST(ObjectExtractor, MeanTableHoldsExactQuotients) {
  // Every entry of every tabled window, bit for bit: q[k] is the one IEEE
  // division k / (n·n) the seed's summed-area tables made.
  int tabled = 0;
  for (int n = 1; n <= 15; n += 2) {
    ExtractorParams params;
    params.window = n;
    const ObjectExtractor ex(params);
    const std::vector<double>& q = ex.mean_table();
    const std::size_t entries = static_cast<std::size_t>(n * n * 255 + 1);
    if (entries > ObjectExtractor::kMaxMeanTableEntries) {
      EXPECT_TRUE(q.empty()) << "window " << n;
      continue;
    }
    ++tabled;
    ASSERT_EQ(q.size(), entries) << "window " << n;
    const double area = static_cast<double>(n) * static_cast<double>(n);
    for (std::size_t k = 0; k < entries; ++k) {
      ASSERT_EQ(q[k], static_cast<double>(k) / area) << "window " << n << " k " << k;
    }
  }
  EXPECT_EQ(tabled, 3);  // windows 1, 3 and 5
  EXPECT_EQ(ObjectExtractor().mean_table().size(), 2296u);
}

RgbImage random_rgb(std::mt19937& rng, int w, int h) {
  RgbImage img(w, h);
  for (Rgb& p : img.data()) {
    p = {static_cast<std::uint8_t>(rng()), static_cast<std::uint8_t>(rng()),
         static_cast<std::uint8_t>(rng())};
  }
  return img;
}

void expect_matches_reference(const ExtractorParams& params, const RgbImage& background,
                              const RgbImage& frame, FrameWorkspace& ws,
                              const std::string& label) {
  ObjectExtractor ex(params);
  ex.set_background(background);
  BinaryImage silhouette;
  const double max_d = ex.extract_into(frame, ws, silhouette);
  const reference::ExtractionResult want = reference::extract(params, background, frame);
  EXPECT_EQ(ws.difference, want.difference) << label;
  EXPECT_EQ(max_d, want.max_difference) << label;
  EXPECT_EQ(ws.raw_mask, want.raw_mask) << label;
  EXPECT_EQ(ws.smoothed, want.smoothed) << label;
  EXPECT_EQ(silhouette, want.silhouette) << label;
}

TEST(ObjectExtractor, ExtractIntoMatchesReferenceAcrossWindowsAndSizes) {
  // Tabled windows (1, 3, 5), dividing ones (7, 9) and a window wider than
  // the frame, on odd sizes and single rows/columns, through one reused
  // workspace. The suite runs on the default, SLJ_SIMD=OFF and AVX2 builds,
  // so every backend's row kernels meet the seed chain here.
  FrameWorkspace ws;
  std::mt19937 rng(11);
  const std::pair<int, int> sizes[] = {{1, 1}, {1, 9}, {13, 1}, {31, 17}, {65, 33}, {47, 64}};
  for (const auto& [w, h] : sizes) {
    const RgbImage studio = studio_background(w, h, 3, 6.0);
    const RgbImage jumper = with_object(studio_background(w, h, 4, 6.0),
                                        {w * 0.4, h * 0.5}, std::max(1.0, std::min(w, h) / 3.0));
    const RgbImage noise_bg = random_rgb(rng, w, h);
    const RgbImage noise_frame = random_rgb(rng, w, h);
    for (const int window : {1, 3, 5, 7, 9, 2 * std::max(w, h) + 1}) {
      ExtractorParams params;
      params.window = window;
      const std::string label =
          std::to_string(w) + "x" + std::to_string(h) + " window " + std::to_string(window);
      expect_matches_reference(params, studio, jumper, ws, label + " jumper");
      expect_matches_reference(params, noise_bg, noise_frame, ws, label + " noise");
    }
  }
}

TEST(ObjectExtractor, ExtractIntoMatchesReferenceAtTheColumnSumLimit) {
  // 257 saturated rows fill a 16-bit column sum exactly (257 · 255 = 65535);
  // a window and frame both taller than that take the summed-area fallback.
  FrameWorkspace ws;
  std::mt19937 rng(12);
  for (const auto& [h, window] : {std::pair<int, int>{257, 259}, {259, 259}, {258, 301}}) {
    RgbImage frame = random_rgb(rng, 3, h);
    for (int y = 0; y < h; ++y) frame.at(1, y) = {255, 255, 255};
    const RgbImage background(3, h, {0, 0, 0});
    ExtractorParams params;
    params.window = window;
    expect_matches_reference(params, background, frame, ws,
                             "3x" + std::to_string(h) + " window " + std::to_string(window));
  }
}

}  // namespace
}  // namespace slj::seg
