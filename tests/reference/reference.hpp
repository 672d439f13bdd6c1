// The seed implementations of the per-frame vision chain, kept as the
// oracles the parity suites compare the shipped workspace chain against.
// They are the straightforward versions of each stage — full-image sweeps,
// freshly allocated intermediates, no SIMD — so a bug in a fast path cannot
// hide behind the same bug in its oracle. Only test targets link this
// library (slj_reference); nothing under src/ may call it.
#pragma once

#include <cstddef>

#include "core/clip_engine.hpp"
#include "core/pipeline.hpp"
#include "detection/blob_tracker.hpp"
#include "imaging/image.hpp"
#include "segmentation/object_extractor.hpp"
#include "thinning/zhang_suen.hpp"

namespace slj::reference {

/// The paper's object extraction (Sec. 2), stage by stage.
struct ExtractionResult {
  Image<double> difference;   ///< D(i,j) = |ΔR| + |ΔG| + |ΔB|  (step iv)
  double max_difference = 0;  ///< max of D                     (step v)
  GrayImage normalized;       ///< R: shifted so max = 255, clamped at 0 (vi–vii)
  BinaryImage raw_mask;       ///< Obj: R > Th_Object            (step viii)
  BinaryImage smoothed;       ///< after median filter           (Fig. 1c)
  BinaryImage silhouette;     ///< after largest-component + hole fill
};

/// Runs steps ii–viii plus smoothing and cleanup on one frame against the
/// empty-scene `background` plate (step i).
ExtractionResult extract(const seg::ExtractorParams& params, const RgbImage& background,
                         const RgbImage& frame);

/// Shortcut returning only the final silhouette.
BinaryImage silhouette(const seg::ExtractorParams& params, const RgbImage& background,
                       const RgbImage& frame);

/// Hole fill: every background pixel not 4-connected to the image border
/// becomes foreground. A per-pixel breadth-first flood from every border
/// background pixel over the whole frame; the result is 0/1.
BinaryImage fill_holes(const BinaryImage& img);

/// Median filter over a k×k window (k odd). Border pixels use the clamped
/// window. Works on full 8-bit grayscale range.
GrayImage median_filter(const GrayImage& img, int k);

/// Thins `img` (0/1 mask) to a one-pixel-wide skeleton by full-image
/// Zhang–Suen passes until one removes nothing. `stats`, when given,
/// receives iteration telemetry.
BinaryImage zhang_suen_thin(const BinaryImage& img, thin::ThinningStats* stats = nullptr);

/// One full Zhang–Suen pass (both sub-iterations) in place. Returns pixels
/// removed.
std::size_t zhang_suen_pass(BinaryImage& img);

/// Number of foreground neighbours of (x, y) — B(P1).
int neighbour_count(const BinaryImage& img, int x, int y);

/// Number of 0→1 transitions in the ordered ring P2..P9,P2 — A(P1).
int transition_count(const BinaryImage& img, int x, int y);

/// The pipeline's stages after segmentation, from `silhouette`: reference
/// thinning, then the shipped graph cleanup and features with
/// `pipeline.params()` and `pipeline.encoder()`.
core::FrameObservation process_silhouette(const core::FramePipeline& pipeline,
                                          const BinaryImage& silhouette);

/// Full per-frame processing (the extractor's largest component is taken as
/// the jumper) with the reference extraction and thinning.
core::FrameObservation process(const core::FramePipeline& pipeline, const RgbImage& background,
                               const RgbImage& frame);

/// Same, with the jumper blob selected by `tracker`; falls back to the
/// extractor's own cleanup while no track is confirmed.
core::FrameObservation process(const core::FramePipeline& pipeline, const RgbImage& background,
                               const RgbImage& frame, detect::BlobTracker& tracker);

/// A whole clip as a plain serial loop of process() plus a GroundMonitor:
/// what ClipEngine must reproduce bit for bit.
core::ClipObservation process_clip(const core::FramePipeline& pipeline, const synth::Clip& clip);

}  // namespace slj::reference
