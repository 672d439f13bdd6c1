#include "synth/renderer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/simd.hpp"
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

/// The polar scale of pairs [0, count) into their two normals each, returned
/// value first: normals[2i] = y[i]·m, normals[2i + 1] = x[i]·m with
/// m = sqrt((−2·log r²) / r²), as `polar_scale` rounds it, given log r² in
/// `log_r2`. Returns how many pairs it scaled (whole vectors).
template <class Backend>
std::size_t scale_pairs(const double* x, const double* y, const double* r2, const double* log_r2,
                        std::size_t count, double* normals) {
  using F = simd::VecF64<Backend>;
  const F minus_two = F::broadcast(-2.0);
  std::size_t i = 0;
  for (; i + F::kLanes <= count; i += F::kLanes) {
    const F m = F::sqrt((minus_two * F::load(log_r2 + i)) / F::load(r2 + i));
    F::store_interleaved(F::load(y + i) * m, F::load(x + i) * m, normals + 2 * i);
  }
  return i;
}

/// out[j] = clamp_channel(lift[j % 3] + (normals[j]·sigma + 0)) for whole
/// groups of 3·kLanes channels from 0, returning how many it composed: the
/// background expression of every channel of a row. The lanes cycle through
/// R, G, B, so three vectors of the row's constants cover one group.
template <class Backend>
std::size_t compose_channels(const double* normals, std::size_t count, const double* lift,
                             double sigma, std::uint8_t* out) {
  using F = simd::VecF64<Backend>;
  constexpr std::size_t kLanes = F::kLanes;
  double pattern[3 * kLanes];
  for (std::size_t t = 0; t < 3 * kLanes; ++t) pattern[t] = lift[t % 3];
  const F base[3] = {F::load(pattern), F::load(pattern + kLanes), F::load(pattern + 2 * kLanes)};
  const F s = F::broadcast(sigma);
  const F zero = F::broadcast(0.0);
  const F top = F::broadcast(255.0);
  std::size_t j = 0;
  for (; j + 3 * kLanes <= count; j += 3 * kLanes) {
    for (std::size_t t = 0; t < 3; ++t) {
      const F v = base[t] + (F::load(normals + j + t * kLanes) * s + zero);
      F::min(F::max(v, zero), top).store_trunc_u8(out + j + t * kLanes);
    }
  }
  return j;
}

}  // namespace

RgbImage SilhouetteRenderer::render_frame(const BinaryImage& silhouette, Rng& rng) const {
  static_assert(sizeof(Rgb) == 3, "compose writes a row as 3w bytes");
  const int width = silhouette.width();
  const int height = silhouette.height();
  const auto w = static_cast<std::size_t>(width);
  RgbImage frame(width, height);
  const double sigma = config_.sensor_noise_sigma;
  constexpr double kNoiseMean = 0.0;

  // Row scratch, sized to one row and owned by this call. A row needs 3w
  // normals; a normal left over from the previous row's last pair may cover
  // the first, so at most ceil(3w / 2) new pairs and 3w + 1 normals.
  const std::size_t max_pairs = (3 * w + 1) / 2;
  std::vector<double> pair_x(max_pairs), pair_y(max_pairs), pair_r2(max_pairs);
  std::vector<double> log_r2(max_pairs);
  std::vector<double> normals(3 * w + 1);
  std::vector<std::uint8_t> speckled(w);
  bool carry = false;   // normals[3w] of the previous row is still unused
  double carried = 0.0;

  for (int y = 0; y < height; ++y) {
    const std::uint8_t* mask = silhouette.data().data() + static_cast<std::size_t>(y) * w;

    // Pass 1: walk the stream in the order the pixels consume it. Pixel x
    // uses normals 3x..3x+2 of the row, and a person pixel then draws its
    // speckle uniform, so the pairs those normals need come first. A
    // person-free run draws no uniform, so its pairs come in one bulk call.
    std::size_t n_pairs = 0;
    std::size_t available = carry ? 1 : 0;
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

    // Pass 2: scale each pair into its two normals, returned value first.
    // std::log stays scalar: a vector log would not round as glibc's does.
    const std::size_t k = carry ? 1 : 0;
    if (carry) normals[0] = carried;
    for (std::size_t i = 0; i < n_pairs; ++i) log_r2[i] = std::log(pair_r2[i]);
    const std::size_t scaled = scale_pairs<simd::Active>(pair_x.data(), pair_y.data(),
                                                         pair_r2.data(), log_r2.data(), n_pairs,
                                                         normals.data() + k);
    scale_pairs<simd::ScalarBackend>(pair_x.data() + scaled, pair_y.data() + scaled,
                                     pair_r2.data() + scaled, log_r2.data() + scaled,
                                     n_pairs - scaled, normals.data() + k + 2 * scaled);
    carry = k + 2 * n_pairs > 3 * w;
    if (carry) carried = normals[3 * w];

    // Pass 3: compose. Mild vertical studio-light gradient on the background;
    // dark speckle on clothing (folds/shadows that punch small holes in the
    // thresholded silhouette, Fig. 1b). Every channel gets the background
    // expression first; person pixels are then written over.
    const double gradient = 6.0 * (1.0 - static_cast<double>(y) / height);
    const Rgb bg = config_.background;
    const double lift[3] = {bg.r + gradient, bg.g + gradient, bg.b + gradient};
    Rgb* out = frame.data().data() + static_cast<std::size_t>(y) * w;
    auto* out_bytes = reinterpret_cast<std::uint8_t*>(out);
    const std::size_t composed =
        compose_channels<simd::Active>(normals.data(), 3 * w, lift, sigma, out_bytes);
    compose_channels<simd::ScalarBackend>(normals.data() + composed, 3 * w - composed, lift,
                                          sigma, out_bytes + composed);
    const Rgb base = config_.clothing;
    for (std::size_t x = 0; x < w; ++x) {
      if (!mask[x]) continue;
      const double* n = &normals[3 * x];
      double r = base.r + (n[0] * sigma + kNoiseMean);
      double g = base.g + (n[1] * sigma + kNoiseMean);
      double b = base.b + (n[2] * sigma + kNoiseMean);
      if (speckled[x]) {
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
