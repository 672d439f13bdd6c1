// Rasterises the articulated body into studio-style RGB frames and clean
// ground-truth silhouettes. This stands in for the paper's video camera:
// dark controlled background (the clips "were taken in a studio with a black
// background"), a brightly clothed jumper, sensor noise, and the occasional
// speckle that gives the object-extraction stage the "small holes and
// ridged edges" of Fig. 1(b).
//
// Noise contract: every frame's noise comes from one pinned stream, the
// MT19937 engine in synth/rng.hpp read through the polar method, and is
// byte-identical to what libstdc++'s `std::mt19937` +
// `std::normal_distribution<double>` + `std::uniform_real_distribution<double>`
// rendered before. Per pixel, in row-major order, the stream supplies three
// channel normals (R, G, B) and then, for person pixels only, one speckle
// uniform. Each render call starts a fresh normal sequence: a polar pair's
// unused second value carries from one row into the next but never into the
// next frame. tests/test_dataset.cpp pins the resulting corpus digest.
//
// How a row keeps that order while drawing in bulk: a person-free run of a
// row draws no uniform, so all the polar pairs its normals need come from
// one `polar_pairs` call, which equals that many `polar_pair` calls. A
// person pixel draws the pairs its three normals still need, then its
// speckle uniform, as the per-pixel loop did. Only then are the pairs
// scaled (one `std::log` each, in pair order) and the pixels composed, so
// neither later pass touches the stream. tests/test_renderer.cpp checks
// whole frames against a per-pixel `Normal` + `UniformReal` reference.
#pragma once

#include <cstdint>

#include "imaging/image.hpp"
#include "synth/body_model.hpp"
#include "synth/rng.hpp"

namespace slj::synth {

struct CameraConfig {
  int width = 288;
  int height = 160;
  double pixels_per_meter = 72.0;
  double origin_x_px = 36.0;    ///< image x of world x = 0
  double ground_y_px = 150.0;   ///< image y of world y = 0 (ground line)

  Rgb background{14, 14, 17};
  Rgb clothing{176, 148, 120};
  double sensor_noise_sigma = 3.5;   ///< per-channel Gaussian noise
  double speckle_fraction = 0.004;   ///< fraction of person pixels darkened
  std::uint8_t speckle_strength = 90;
};

/// Ground-truth positions of the five key body parts in *image* pixels.
struct PartTruth {
  PointF head;   ///< head top
  PointF chest;
  PointF hand;
  PointF knee;
  PointF foot;   ///< toe
  PointF waist;  ///< pelvis — used to sanity-check the estimated waist
};

class SilhouetteRenderer {
 public:
  explicit SilhouetteRenderer(CameraConfig config = {});

  const CameraConfig& config() const { return config_; }

  /// World metres → image pixels.
  PointF project(PointF world) const;

  /// Clean binary silhouette of the posed body (no noise) — the ground
  /// truth the extraction stage is scored against.
  BinaryImage render_silhouette(const BodyDimensions& body, const JointAngles& angles,
                                PointF pelvis_world) const;

  /// render_silhouette into `out`, which is resized to the camera and
  /// reuses its storage.
  void render_silhouette_into(const BodyDimensions& body, const JointAngles& angles,
                              PointF pelvis_world, BinaryImage& out) const;

  /// A thin "stick" rendering with fixed limb radius, used by the GA
  /// baseline's fitness model.
  BinaryImage render_stick(const BodyDimensions& body, const JointAngles& angles,
                           PointF pelvis_world, double stick_radius_px) const;

  /// Studio RGB frame: `silhouette` (as render_silhouette returns it)
  /// painted in clothing colour over the dark background, plus sensor noise
  /// and speckle. The frame takes the silhouette's size. `rng` advances per
  /// call so consecutive frames get fresh noise.
  RgbImage render_frame(const BinaryImage& silhouette, Rng& rng) const;

  /// Empty-studio frame (background only + noise).
  RgbImage render_background(Rng& rng) const;

  /// Ground-truth part positions in image pixels.
  PartTruth part_truth(const BodyDimensions& body, const JointAngles& angles,
                       PointF pelvis_world) const;

 private:
  CameraConfig config_;
};

}  // namespace slj::synth
