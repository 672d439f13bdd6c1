#include "synth/renderer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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

TEST(Renderer, RowPassesMatchPerPixelDrawsAtEveryWidth) {
  // Odd widths carry a saved normal across rows; a high speckle rate puts
  // uniforms between the pairs often.
  CameraConfig cam;
  cam.speckle_fraction = 0.3;
  const SilhouetteRenderer r(cam);
  for (int w = 1; w <= 9; ++w) {
    BinaryImage mask(w, 5, 0);
    for (int i = 0; i < static_cast<int>(mask.size()); i += 2) mask.data()[i] = 1;
    Rng a(static_cast<std::uint32_t>(w)), b(static_cast<std::uint32_t>(w));
    EXPECT_EQ(r.render_frame(mask, a), reference_frame(cam, mask, b)) << "width " << w;
    EXPECT_EQ(a(), b()) << "width " << w;
  }
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
