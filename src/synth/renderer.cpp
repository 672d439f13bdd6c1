#include "synth/renderer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "imaging/draw.hpp"

namespace slj::synth {

SilhouetteRenderer::SilhouetteRenderer(CameraConfig config) : config_(config) {}

PointF SilhouetteRenderer::project(PointF world) const {
  return {config_.origin_x_px + world.x * config_.pixels_per_meter,
          config_.ground_y_px - world.y * config_.pixels_per_meter};
}

BinaryImage SilhouetteRenderer::render_silhouette(const BodyDimensions& body,
                                                  const JointAngles& angles,
                                                  PointF pelvis_world) const {
  BinaryImage img;
  render_silhouette_into(body, angles, pelvis_world, img);
  return img;
}

void SilhouetteRenderer::render_silhouette_into(const BodyDimensions& body,
                                                const JointAngles& angles, PointF pelvis_world,
                                                BinaryImage& img) const {
  img.assign(config_.width, config_.height, 0);
  const JointPositions j = forward_kinematics(body, angles, pelvis_world);
  const double s = config_.pixels_per_meter;

  // Torso, head, arm, leg, foot as overlapping capsules/discs — the side
  // view merges both arms (and both legs) into one limb each, exactly the
  // ambiguity the paper's skeletons face.
  fill_capsule(img, project(j.pelvis), project(j.neck), body.torso_radius * s);
  fill_disc(img, project(j.head_center), body.head_radius * s);
  fill_capsule(img, project(j.neck), project(j.head_center), body.arm_radius * 1.4 * s);
  fill_capsule(img, project(j.shoulder), project(j.elbow), body.arm_radius * s);
  fill_capsule(img, project(j.elbow), project(j.hand), body.arm_radius * 0.85 * s);
  fill_capsule(img, project(j.hip), project(j.knee), body.thigh_radius * s);
  fill_capsule(img, project(j.knee), project(j.ankle), body.shank_radius * s);
  fill_capsule(img, project(j.heel), project(j.toe), body.foot_radius * s);
}

BinaryImage SilhouetteRenderer::render_stick(const BodyDimensions& body,
                                             const JointAngles& angles, PointF pelvis_world,
                                             double stick_radius_px) const {
  BinaryImage img(config_.width, config_.height, 0);
  const JointPositions j = forward_kinematics(body, angles, pelvis_world);
  fill_capsule(img, project(j.pelvis), project(j.neck), stick_radius_px);
  fill_capsule(img, project(j.neck), project(j.head_top), stick_radius_px);
  fill_capsule(img, project(j.shoulder), project(j.elbow), stick_radius_px);
  fill_capsule(img, project(j.elbow), project(j.hand), stick_radius_px);
  fill_capsule(img, project(j.hip), project(j.knee), stick_radius_px);
  fill_capsule(img, project(j.knee), project(j.ankle), stick_radius_px);
  fill_capsule(img, project(j.ankle), project(j.toe), stick_radius_px);
  return img;
}

namespace {

std::uint8_t clamp_channel(double v) {
  return static_cast<std::uint8_t>(std::clamp(v, 0.0, 255.0));
}

}  // namespace

RgbImage SilhouetteRenderer::render_frame(const BinaryImage& silhouette, Rng& rng) const {
  const int width = silhouette.width();
  const int height = silhouette.height();
  const auto w = static_cast<std::size_t>(width);
  RgbImage frame(width, height);
  const double sigma = config_.sensor_noise_sigma;
  constexpr double kNoiseMean = 0.0;

  // Row scratch, sized to one row and owned by this call. A row needs 3w
  // normals; a normal left over from the previous row's last pair may cover
  // the first, so at most ceil(3w / 2) new pairs and 3w + 1 normals.
  std::vector<PolarPair> pairs((3 * w + 1) / 2);
  std::vector<double> normals(3 * w + 1);
  std::vector<std::uint8_t> speckled(w);
  bool carry = false;   // normals[3w] of the previous row is still unused
  double carried = 0.0;

  for (int y = 0; y < height; ++y) {
    const std::uint8_t* mask = silhouette.data().data() + static_cast<std::size_t>(y) * w;

    // Pass 1: walk the stream in the order the pixels consume it. Pixel x
    // uses normals 3x..3x+2 of the row, and a person pixel then draws its
    // speckle uniform, so the pairs those normals need come first.
    std::size_t n_pairs = 0;
    std::size_t available = carry ? 1 : 0;
    for (std::size_t x = 0; x < w; ++x) {
      for (; available < 3 * x + 3; available += 2) pairs[n_pairs++] = polar_pair(rng);
      if (mask[x]) speckled[x] = canonical(rng) < config_.speckle_fraction;
    }

    // Pass 2: scale each pair into its two normals, returned value first.
    std::size_t k = 0;
    if (carry) normals[k++] = carried;
    for (std::size_t i = 0; i < n_pairs; ++i) {
      const double m = polar_scale(pairs[i].r2);
      normals[k++] = pairs[i].y * m;
      normals[k++] = pairs[i].x * m;
    }
    carry = k > 3 * w;
    if (carry) carried = normals[3 * w];

    // Pass 3: compose. Mild vertical studio-light gradient on the background;
    // dark speckle on clothing (folds/shadows that punch small holes in the
    // thresholded silhouette, Fig. 1b).
    const double gradient = 6.0 * (1.0 - static_cast<double>(y) / height);
    Rgb* out = frame.data().data() + static_cast<std::size_t>(y) * w;
    for (std::size_t x = 0; x < w; ++x) {
      const bool person = mask[x] != 0;
      const Rgb base = person ? config_.clothing : config_.background;
      const double lift = person ? 0.0 : gradient;
      const double* n = &normals[3 * x];
      double r = base.r + lift + (n[0] * sigma + kNoiseMean);
      double g = base.g + lift + (n[1] * sigma + kNoiseMean);
      double b = base.b + lift + (n[2] * sigma + kNoiseMean);
      if (person && speckled[x]) {
        r -= config_.speckle_strength;
        g -= config_.speckle_strength;
        b -= config_.speckle_strength;
      }
      out[x] = {clamp_channel(r), clamp_channel(g), clamp_channel(b)};
    }
  }
  return frame;
}

RgbImage SilhouetteRenderer::render_background(Rng& rng) const {
  return render_frame(BinaryImage(config_.width, config_.height, 0), rng);
}

PartTruth SilhouetteRenderer::part_truth(const BodyDimensions& body, const JointAngles& angles,
                                         PointF pelvis_world) const {
  const JointPositions j = forward_kinematics(body, angles, pelvis_world);
  PartTruth t;
  t.head = project(j.head_top);
  t.chest = project(j.chest);
  t.hand = project(j.hand);
  t.knee = project(j.knee);
  t.foot = project(j.toe);
  t.waist = project(j.pelvis);
  return t;
}

}  // namespace slj::synth
