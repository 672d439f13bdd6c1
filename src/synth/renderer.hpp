// Rasterises the articulated body into studio-style RGB frames and clean
// ground-truth silhouettes. This stands in for the paper's video camera:
// dark controlled background (the clips "were taken in a studio with a black
// background"), a brightly clothed jumper, sensor noise, and the occasional
// speckle that gives the object-extraction stage the "small holes and
// ridged edges" of Fig. 1(b).
//
// Noise contract: every frame's noise comes from one pinned stream, the
// MT19937 engine in synth/rng.hpp read through the polar method, and its
// bytes are those that libstdc++'s `std::mt19937` +
// `std::normal_distribution<double>` + `std::uniform_real_distribution<double>`
// rendered before. Per pixel, in row-major order, the stream supplies three
// channel normals (R, G, B) and then, for person pixels only, one speckle
// uniform. Each render call starts a fresh normal sequence: a polar pair's
// unused second value carries from one row into the next but never into the
// next frame. tests/test_dataset.cpp pins the resulting corpus digest.
//
// The contract pins bytes, not doubles. Each normal n lands in one channel
// byte, trunc(clamp(lift + n·σ, 0, 255)); the renderer computes that value in
// float lanes (synth/noise_lanes.hpp, with a polynomial log) and keeps the
// float byte wherever a proven error bound holds it clear of an integer.
// Only a channel within `noise::kEdgeMargin` of one (about 0.2% of a frame)
// is recomputed as the double expression: `std::log`, the polar scale, then
// lift + (n·σ + 0) and the speckle subtract.
//
// How a row keeps that order while drawing in bulk: a person-free run of a
// row draws no uniform, so all the polar pairs its normals need come from
// one `polar_pairs` call, which equals that many `polar_pair` calls. A
// person pixel draws the pairs its three normals still need, then its
// speckle uniform, as the per-pixel loop did. Only then does a
// `NoiseComposer` scale the pairs and compose the pixels, so neither later
// pass touches the stream. tests/test_renderer.cpp checks whole frames
// against a per-pixel `Normal` + `UniformReal` reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

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

/// Passes 2 and 3 of `SilhouetteRenderer::render_frame`, one row at a time:
/// scales a row's polar pairs into its channel normals in float lanes and
/// composes the row's bytes, recomputing in double each channel whose float
/// value lies within `noise::kEdgeMargin` of an integer. One per frame, rows
/// in order: the last row's unused normal carries into the next row only.
class NoiseComposer {
 public:
  NoiseComposer(const CameraConfig& camera, int width, int height);

  /// True while the previous row left its last pair's second normal unused;
  /// it is the next row's first.
  bool carrying() const { return carry_; }

  /// Composes row `y` into `out` (width pixels) from the `pairs` polar
  /// draws (x, y, r², as `polar_pairs` writes them) that the row's normals
  /// still need, in stream order. `mask` marks the row's person pixels and
  /// `speckled` their speckle draws; both are read at person pixels only.
  void compose_row(int y, const std::uint8_t* mask, const std::uint8_t* speckled,
                   const double* pair_x, const double* pair_y, const double* pair_r2,
                   std::size_t pairs, Rgb* out);

  /// Channels composed so far that took the exact path.
  std::size_t exact_channels() const { return exact_channels_; }

 private:
  CameraConfig camera_;
  std::size_t width_;
  int height_;
  float lo_;  ///< a channel whose float fraction is below lo_ or above hi_ is exact
  float hi_;
  bool carry_ = false;
  double carried_ = 0.0;
  std::size_t exact_channels_ = 0;
  std::vector<float> normals_;       ///< 3w normals of the row, + the carry and a spare
  std::vector<std::uint32_t> edges_; ///< channels of the row the float lanes left open
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
