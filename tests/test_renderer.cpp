#include "synth/renderer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "synth/dataset.hpp"

namespace slj::synth {
namespace {

const BodyDimensions kBody = BodyDimensions::for_height(1.38);

TEST(Renderer, ProjectionMapsGroundAndScale) {
  CameraConfig cam;
  const SilhouetteRenderer r(cam);
  const PointF origin = r.project({0.0, 0.0});
  EXPECT_DOUBLE_EQ(origin.x, cam.origin_x_px);
  EXPECT_DOUBLE_EQ(origin.y, cam.ground_y_px);
  // One metre up maps pixels_per_meter up the image (smaller y).
  const PointF up = r.project({0.0, 1.0});
  EXPECT_DOUBLE_EQ(up.y, cam.ground_y_px - cam.pixels_per_meter);
}

TEST(Renderer, SilhouetteIsSubstantialAndInFrame) {
  const SilhouetteRenderer r;
  JointAngles standing;
  const double h = pelvis_height_for_ground_contact(kBody, standing);
  const BinaryImage sil = r.render_silhouette(kBody, standing, {0.4, h});
  const std::size_t area = count_foreground(sil);
  EXPECT_GT(area, 600u);   // a person, not a speck
  EXPECT_LT(area, sil.size() / 4);
}

TEST(Renderer, SilhouetteTopNearHeadBottomNearFeet) {
  const SilhouetteRenderer r;
  JointAngles standing;
  const double h = pelvis_height_for_ground_contact(kBody, standing);
  const BinaryImage sil = r.render_silhouette(kBody, standing, {0.4, h});
  int top = sil.height(), bottom = -1;
  for (int y = 0; y < sil.height(); ++y) {
    for (int x = 0; x < sil.width(); ++x) {
      if (sil.at(x, y)) {
        top = std::min(top, y);
        bottom = std::max(bottom, y);
      }
    }
  }
  const PartTruth truth = r.part_truth(kBody, standing, {0.4, h});
  EXPECT_NEAR(top, truth.head.y, 4.0);
  EXPECT_NEAR(bottom, r.config().ground_y_px, 3.0);
}

TEST(Renderer, PartTruthPointsLieInsideSilhouette) {
  const SilhouetteRenderer r;
  JointAngles a;
  a.shoulder = 0.9;
  a.knee = 0.4;
  a.hip = 0.3;
  const double h = pelvis_height_for_ground_contact(kBody, a);
  const BinaryImage sil = r.render_silhouette(kBody, a, {0.5, h});
  const PartTruth truth = r.part_truth(kBody, a, {0.5, h});
  for (const PointF p : {truth.chest, truth.knee, truth.waist}) {
    const PointI px = round_to_i(p);
    ASSERT_TRUE(sil.in_bounds(px));
    EXPECT_TRUE(sil.at(px)) << "(" << px.x << "," << px.y << ")";
  }
}

TEST(Renderer, StickRenderingIsThinnerThanBody) {
  const SilhouetteRenderer r;
  JointAngles standing;
  const double h = pelvis_height_for_ground_contact(kBody, standing);
  const BinaryImage body = r.render_silhouette(kBody, standing, {0.4, h});
  const BinaryImage stick = r.render_stick(kBody, standing, {0.4, h}, 2.0);
  EXPECT_LT(count_foreground(stick), count_foreground(body));
  EXPECT_GT(count_foreground(stick), 100u);
}

TEST(Renderer, FramePaintsPersonBrighterThanBackground) {
  const SilhouetteRenderer r;
  JointAngles standing;
  const double h = pelvis_height_for_ground_contact(kBody, standing);
  const BinaryImage sil = r.render_silhouette(kBody, standing, {0.4, h});
  Rng rng(1);
  const RgbImage frame = r.render_frame(sil, rng);
  double person = 0.0, bg = 0.0;
  std::size_t np = 0, nb = 0;
  for (int y = 0; y < frame.height(); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      const double lum = frame.at(x, y).r + frame.at(x, y).g + frame.at(x, y).b;
      if (sil.at(x, y)) {
        person += lum;
        ++np;
      } else {
        bg += lum;
        ++nb;
      }
    }
  }
  EXPECT_GT(person / np, 3.0 * bg / nb);
}

TEST(Renderer, BackgroundFrameHasNoPerson) {
  const SilhouetteRenderer r;
  Rng rng(2);
  const RgbImage bg = r.render_background(rng);
  double max_lum = 0.0;
  for (const Rgb& p : bg.data()) {
    max_lum = std::max(max_lum, (p.r + p.g + p.b) / 3.0);
  }
  EXPECT_LT(max_lum, 60.0);  // dark studio everywhere
}

TEST(Renderer, NoiseMakesFramesDiffer) {
  const SilhouetteRenderer r;
  JointAngles standing;
  const double h = pelvis_height_for_ground_contact(kBody, standing);
  const BinaryImage sil = r.render_silhouette(kBody, standing, {0.4, h});
  Rng rng(3);
  const RgbImage f1 = r.render_frame(sil, rng);
  const RgbImage f2 = r.render_frame(sil, rng);
  EXPECT_NE(f1, f2);
}

// Per-pixel reference for the noise contract in renderer.hpp: three channel
// normals from one Normal object, then a speckle uniform on person pixels.
RgbImage reference_frame(const CameraConfig& cam, const BinaryImage& mask, Rng& rng) {
  RgbImage frame(mask.width(), mask.height());
  Normal noise(0.0, cam.sensor_noise_sigma);
  const UniformReal unit(0.0, 1.0);
  const auto clamp = [](double v) { return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0)); };
  for (int y = 0; y < frame.height(); ++y) {
    for (int x = 0; x < frame.width(); ++x) {
      const bool person = mask.at(x, y) != 0;
      const Rgb base = person ? cam.clothing : cam.background;
      const double gradient = person ? 0.0 : 6.0 * (1.0 - static_cast<double>(y) / frame.height());
      double r = base.r + gradient + noise(rng);
      double g = base.g + gradient + noise(rng);
      double b = base.b + gradient + noise(rng);
      if (person && unit(rng) < cam.speckle_fraction) {
        r -= cam.speckle_strength;
        g -= cam.speckle_strength;
        b -= cam.speckle_strength;
      }
      frame.at(x, y) = {clamp(r), clamp(g), clamp(b)};
    }
  }
  return frame;
}

// Renders `masks` in order from one stream, as generate_clip does, against
// the per-pixel reference; both must leave the stream at the same word.
void expect_frames_match_reference(const CameraConfig& cam, const std::vector<BinaryImage>& masks,
                                   std::uint32_t seed, const std::string& what) {
  const SilhouetteRenderer r(cam);
  Rng a(seed), b(seed);
  for (std::size_t i = 0; i < masks.size(); ++i) {
    EXPECT_EQ(r.render_frame(masks[i], a), reference_frame(cam, masks[i], b))
        << what << ", frame " << i;
  }
  EXPECT_EQ(a(), b()) << what;
}

TEST(Renderer, RowPassesMatchPerPixelDrawsAtEveryWidth) {
  // Odd widths carry a saved normal across rows; a high speckle rate puts
  // uniforms between the pairs often. Widths 1–9 leave every length of
  // vector tail in the row kernels.
  CameraConfig speckled;
  speckled.speckle_fraction = 0.3;
  for (int w = 1; w <= 9; ++w) {
    BinaryImage mask(w, 5, 0);
    for (int i = 0; i < static_cast<int>(mask.size()); i += 2) mask.data()[i] = 1;
    expect_frames_match_reference(speckled, {mask}, static_cast<std::uint32_t>(w),
                                  "width " + std::to_string(w));
  }

  // Full frames cross hundreds of MT19937 refills each: a clip's
  // consecutive masks from one stream.
  ClipSpec spec;
  spec.seed = 5;
  spec.frame_count = 3;
  const std::vector<BinaryImage> clip = render_clean_silhouettes(spec);
  expect_frames_match_reference(CameraConfig{}, clip, 11, "clip masks");
  expect_frames_match_reference(speckled, clip, 12, "clip masks, speckled");

  // Person runs touching x = 0 and x = w − 1, an all-person row, and an
  // all-background frame.
  const CameraConfig cam;
  BinaryImage edges(cam.width, cam.height, 0);
  for (int y = 0; y < cam.height; y += 3) {
    for (int x = 0; x < 5; ++x) {
      edges.at(x, y) = 1;
      edges.at(cam.width - 1 - x, y) = 1;
    }
  }
  for (int x = 0; x < cam.width; ++x) edges.at(x, cam.height / 2) = 1;
  expect_frames_match_reference(speckled, {edges, BinaryImage(cam.width, cam.height, 0)}, 13,
                                "edge runs");
}

TEST(Renderer, MovingPelvisMovesSilhouette) {
  const SilhouetteRenderer r;
  JointAngles standing;
  const double h = pelvis_height_for_ground_contact(kBody, standing);
  const BinaryImage near_sil = r.render_silhouette(kBody, standing, {0.3, h});
  const BinaryImage far_sil = r.render_silhouette(kBody, standing, {1.3, h});
  EXPECT_LT(iou(near_sil, far_sil), 0.05);
}

}  // namespace
}  // namespace slj::synth
