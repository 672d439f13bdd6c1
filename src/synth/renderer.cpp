#include "synth/renderer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/simd.hpp"
#include "imaging/draw.hpp"
#include "synth/noise_lanes.hpp"

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

constexpr double kNoiseMean = 0.0;

}  // namespace

NoiseComposer::NoiseComposer(const CameraConfig& camera, int width, int height)
    : camera_(camera),
      width_(static_cast<std::size_t>(width)),
      height_(height),
      // Outside the bound's σ every fraction is below 1: every channel exact.
      lo_(std::abs(camera.sensor_noise_sigma) <= noise::kMaxNoiseSigma ? noise::kEdgeMargin
                                                                       : 1.0f),
      hi_(1.0f - noise::kEdgeMargin),
      normals_(3 * width_ + 2),
      edges_(3 * width_) {}

void NoiseComposer::compose_row(int y, const std::uint8_t* mask, const std::uint8_t* speckled,
                                const double* pair_x, const double* pair_y,
                                const double* pair_r2, std::size_t pairs, Rgb* out) {
  static_assert(sizeof(Rgb) == 3, "compose writes a row as 3w bytes");
  const std::size_t channels = 3 * width_;
  const double sigma = camera_.sensor_noise_sigma;
  const auto sigma_f = static_cast<float>(sigma);

  // Pass 2: the row's normals in float, returned value first: normals_[k +
  // 2i] ≈ y[i]·m and normals_[k + 2i + 1] ≈ x[i]·m after the carried one.
  const std::size_t k = carry_ ? 1 : 0;
  if (carry_) normals_[0] = static_cast<float>(carried_);
  const std::size_t scaled = noise::scale_pairs<simd::Active>(pair_x, pair_y, pair_r2, pairs,
                                                              normals_.data() + k);
  noise::scale_pairs<simd::ScalarBackend>(pair_x + scaled, pair_y + scaled, pair_r2 + scaled,
                                          pairs - scaled, normals_.data() + k + 2 * scaled);
  // Channel j's normal exactly as the contract computes it.
  const auto exact_normal = [&](std::size_t j) {
    if (j < k) return carried_;
    const std::size_t i = (j - k) / 2;
    return ((j - k) % 2 == 0 ? pair_y[i] : pair_x[i]) * polar_scale(pair_r2[i]);
  };

  // Pass 3: compose. Mild vertical studio-light gradient on the background;
  // dark speckle on clothing (folds/shadows that punch small holes in the
  // thresholded silhouette, Fig. 1b). Every channel gets the background
  // value first; person pixels are then written over with their own lift.
  const double gradient = 6.0 * (1.0 - static_cast<double>(y) / height_);
  const Rgb bg = camera_.background;
  const Rgb clothing = camera_.clothing;
  const double lift[3] = {bg.r + gradient, bg.g + gradient, bg.b + gradient};
  const float lift_f[3] = {static_cast<float>(lift[0]), static_cast<float>(lift[1]),
                           static_cast<float>(lift[2])};
  auto* out_bytes = reinterpret_cast<std::uint8_t*>(out);
  std::uint32_t* edges = edges_.data();
  std::size_t n_edges = 0;
  const std::size_t composed = noise::compose_channels<simd::Active>(
      normals_.data(), channels, lift_f, sigma_f, lo_, hi_, out_bytes, 0, edges, n_edges);
  noise::compose_channels<simd::ScalarBackend>(
      normals_.data() + composed, channels - composed, lift_f, sigma_f, lo_, hi_,
      out_bytes + composed, static_cast<std::uint32_t>(composed), edges, n_edges);
  n_edges = static_cast<std::size_t>(
      std::remove_if(edges, edges + n_edges, [&](std::uint32_t j) { return mask[j / 3] != 0; }) -
      edges);
  for (std::size_t x = 0; x < width_; ++x) {
    if (!mask[x]) continue;
    const int strength = speckled[x] ? camera_.speckle_strength : 0;
    const float person[3] = {static_cast<float>(clothing.r - strength),
                             static_cast<float>(clothing.g - strength),
                             static_cast<float>(clothing.b - strength)};
    noise::compose_channels<simd::ScalarBackend>(normals_.data() + 3 * x, 3, person, sigma_f,
                                                 lo_, hi_, out_bytes + 3 * x,
                                                 static_cast<std::uint32_t>(3 * x), edges, n_edges);
  }

  // The channels the float lanes left open, as the contract computes them.
  for (std::size_t e = 0; e < n_edges; ++e) {
    const std::size_t j = edges[e];
    const std::size_t x = j / 3;
    const double noise = exact_normal(j) * sigma + kNoiseMean;
    if (!mask[x]) {
      out_bytes[j] = clamp_channel(lift[j % 3] + noise);
      continue;
    }
    const std::uint8_t base[3] = {clothing.r, clothing.g, clothing.b};
    double v = base[j % 3] + noise;
    if (speckled[x]) v -= camera_.speckle_strength;
    out_bytes[j] = clamp_channel(v);
  }
  exact_channels_ += n_edges;

  // The row's last pair may leave its second normal for the next row.
  carry_ = k + 2 * pairs > channels;
  if (carry_) carried_ = exact_normal(channels);
}

RgbImage SilhouetteRenderer::render_frame(const BinaryImage& silhouette, Rng& rng) const {
  const int width = silhouette.width();
  const int height = silhouette.height();
  const auto w = static_cast<std::size_t>(width);
  RgbImage frame(width, height);
  NoiseComposer composer(config_, width, height);

  // Row scratch, sized to one row and owned by this call. A row needs 3w
  // normals; a normal left over from the previous row's last pair may cover
  // the first, so at most ceil(3w / 2) new pairs.
  const std::size_t max_pairs = (3 * w + 1) / 2;
  std::vector<double> pair_x(max_pairs), pair_y(max_pairs), pair_r2(max_pairs);
  std::vector<std::uint8_t> speckled(w);

  for (int y = 0; y < height; ++y) {
    const std::uint8_t* mask = silhouette.data().data() + static_cast<std::size_t>(y) * w;

    // Pass 1: walk the stream in the order the pixels consume it. Pixel x
    // uses normals 3x..3x+2 of the row, and a person pixel then draws its
    // speckle uniform, so the pairs those normals need come first. A
    // person-free run draws no uniform, so its pairs come in one bulk call.
    std::size_t n_pairs = 0;
    std::size_t available = composer.carrying() ? 1 : 0;
    for (std::size_t x = 0; x < w;) {
      const bool person = mask[x] != 0;
      const std::size_t end =
          person ? x + 1 : x + simd::find_nonzero<simd::Active>(mask + x, w - x);
      if (available < 3 * end) {
        const std::size_t n = (3 * end - available + 1) / 2;
        polar_pairs(rng, n, pair_x.data() + n_pairs, pair_y.data() + n_pairs,
                    pair_r2.data() + n_pairs);
        n_pairs += n;
        available += 2 * n;
      }
      if (person) speckled[x] = canonical(rng) < config_.speckle_fraction;
      x = end;
    }

    composer.compose_row(y, mask, speckled.data(), pair_x.data(), pair_y.data(),
                         pair_r2.data(), n_pairs,
                         frame.data().data() + static_cast<std::size_t>(y) * w);
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
