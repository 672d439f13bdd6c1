#include "synth/renderer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/simd.hpp"
#include "synth/dataset.hpp"
#include "synth/noise_lanes.hpp"

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

TEST(Renderer, NoisyCamerasMatchPerPixelDraws) {
  // σ = 0 puts every channel on its lift (whole numbers at rows 0 and 80);
  // σ = 31.9 stretches the float bound to its widest; above
  // noise::kMaxNoiseSigma every channel takes the exact path.
  ClipSpec spec;
  spec.seed = 8;
  spec.frame_count = 2;
  const std::vector<BinaryImage> clip = render_clean_silhouettes(spec);
  for (const double sigma : {0.0, 7.0, 31.9, 40.0}) {
    CameraConfig cam;
    cam.sensor_noise_sigma = sigma;
    cam.speckle_fraction = 0.1;
    cam.speckle_strength = 130;
    expect_frames_match_reference(cam, clip, 21, "sigma " + std::to_string(sigma));
  }
}

// The float lanes' scale of n pairs on Backend, whole vectors first and the
// tail on the scalar twin, as NoiseComposer runs it.
template <class Backend>
std::vector<float> fast_normals(const std::vector<double>& x, const std::vector<double>& y,
                                const std::vector<double>& r2) {
  std::vector<float> normals(2 * r2.size());
  const std::size_t done =
      noise::scale_pairs<Backend>(x.data(), y.data(), r2.data(), r2.size(), normals.data());
  noise::scale_pairs<simd::ScalarBackend>(x.data() + done, y.data() + done, r2.data() + done,
                                          r2.size() - done, normals.data() + 2 * done);
  return normals;
}

// Checks every normal of the pairs against the bound in noise_lanes.hpp:
// σ·n within kNoiseRelError of the double σ·n, and a composed channel
// value within the full bound of the double one, at the lifts the camera
// can produce. Returns the largest |σ·n_float − σ·n_double|.
template <class Backend>
double check_bound(const std::vector<double>& x, const std::vector<double>& y,
                   const std::vector<double>& r2) {
  constexpr double kSigma = 3.5;
  const std::vector<float> normals = fast_normals<Backend>(x, y, r2);
  const double full_bound =
      noise::kNoiseRelError * kSigma * noise::kMaxNormal + noise::kComposeError;
  double worst = 0.0;
  for (std::size_t i = 0; i < r2.size(); ++i) {
    const double m = polar_scale(r2[i]);
    for (int half = 0; half < 2; ++half) {
      const double exact = (half == 0 ? y[i] : x[i]) * m;
      const float fast = normals[2 * i + static_cast<std::size_t>(half)];
      if (!(std::abs(exact) <= noise::kMaxNormal)) {
        ADD_FAILURE() << "|n| above kMaxNormal at r2 " << r2[i];
        return worst;
      }
      const double noise_d = exact * kSigma + 0.0;
      const double err = std::abs(static_cast<double>(static_cast<float>(kSigma) * fast) - noise_d);
      worst = std::max(worst, err);
      if (!(err <= noise::kNoiseRelError * std::abs(noise_d))) {
        ADD_FAILURE() << "sigma·n off by " << err << " at r2 " << r2[i] << ", n " << exact;
        return worst;
      }
      for (const double lift : {20.0375, 158.0, 261.0, -90.0}) {
        const float v = static_cast<float>(lift) + static_cast<float>(kSigma) * fast;
        if (!(std::abs(static_cast<double>(v) - (lift + noise_d)) <= full_bound)) {
          ADD_FAILURE() << "channel off the bound at r2 " << r2[i] << ", lift " << lift;
          return worst;
        }
      }
    }
  }
  return worst;
}

template <class Backend>
void sweep_scale_bound(const char* backend) {
  SCOPED_TRACE(backend);
  std::vector<double> x, y, r2;
  const auto flush = [&] {
    const double worst = check_bound<Backend>(x, y, r2);
    EXPECT_LT(worst, noise::kEdgeMargin / 100.0);
    x.clear();
    y.clear();
    r2.clear();
  };
  // 2^22 polar draws as the renderer gets them, a block at a time (ten
  // times as many stay inside the bound too, but take ≈5 s here).
  constexpr std::size_t kBlock = 1 << 16;
  Rng rng(2024);
  for (int block = 0; block < 64; ++block) {
    x.resize(kBlock);
    y.resize(kBlock);
    r2.resize(kBlock);
    polar_pairs(rng, kBlock, x.data(), y.data(), r2.data());
    flush();
  }
  // r² just below 1, where log r² ≈ r² − 1 must keep every bit, and every
  // power of two down to the smallest r² the stream can produce, 2^−106,
  // with its neighbours; the point (x, y) sits on the circle of radius r.
  const auto add = [&](double q) {
    const double c = std::sqrt(q / 2.0);
    x.push_back(c);
    y.push_back(-c);
    r2.push_back(q);
  };
  for (std::uint32_t j = 0; j < 2000000; ++j) add(1.0 - j * 0x1p-53);
  for (int e = 0; e >= -106; --e) {
    const double q = std::ldexp(1.0, e);
    add(q);
    add(std::nextafter(q, 0.0));
    if (e == 0) continue;
    add(std::nextafter(q, 1.0));
    add(q * 0x1.6a09e667f3bcdp+0);  // either side of the √2 split
    add(std::nextafter(q * 0x1.6a09e667f3bcdp+0, 1.0));
  }
  flush();
}

TEST(Renderer, FloatNoiseLanesStayInsideTheirBound) {
  sweep_scale_bound<simd::Active>(simd::backend_name());
  sweep_scale_bound<simd::ScalarBackend>("scalar");
}

TEST(Renderer, OnlyEdgeChannelsTakeTheExactPath) {
  // About 0.2% of a frame's channels fall within the margin at σ = 3.5;
  // every other byte comes from the float lanes.
  const CameraConfig cam;
  ClipSpec spec;
  spec.seed = 5;
  spec.frame_count = 1;
  const BinaryImage mask = render_clean_silhouettes(spec)[0];
  const auto w = static_cast<std::size_t>(mask.width());
  const std::size_t row_pairs = 3 * w / 2;
  const std::size_t n = row_pairs * static_cast<std::size_t>(mask.height());
  std::vector<double> x(n), y(n), r2(n);
  Rng rng(31);
  polar_pairs(rng, n, x.data(), y.data(), r2.data());
  const std::vector<std::uint8_t> speckled(mask.size(), 0);
  RgbImage frame(mask.width(), mask.height());
  NoiseComposer composer(cam, mask.width(), mask.height());
  for (int row = 0; row < mask.height(); ++row) {
    const std::size_t at = static_cast<std::size_t>(row) * w;
    const std::size_t p = static_cast<std::size_t>(row) * row_pairs;
    composer.compose_row(row, mask.data().data() + at, speckled.data() + at, x.data() + p,
                         y.data() + p, r2.data() + p, row_pairs, frame.data().data() + at);
  }
  const std::size_t channels = 3 * mask.size();
  EXPECT_GT(composer.exact_channels(), channels / 2000);
  EXPECT_LT(composer.exact_channels(), channels / 200);
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
