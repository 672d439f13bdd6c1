// F1 — Figure 1: input frame → extracted silhouette → median-smoothed
// silhouette. Reproduced quantitatively: per-stage IoU of the extracted
// mask against the noise-free ground-truth silhouette, before and after the
// median filter, plus hole statistics. Also writes a PGM triptych of one
// representative frame.
#include "bench_common.hpp"
#include "imaging/connected.hpp"
#include "imaging/morphology.hpp"
#include "imaging/image_io.hpp"

int main() {
  using namespace slj;
  bench::print_header("F1  object extraction pipeline",
                      "Fig. 1: (a) input frame (b) extracted silhouette (c) smoothed");

  synth::ClipSpec spec;
  spec.seed = 2025;
  spec.frame_count = 45;
  // A noisier studio than the default corpus, so the raw mask shows the
  // holes and speckle of Fig. 1(b) and the smoothing step has work to do.
  spec.camera.sensor_noise_sigma = 7.0;
  spec.camera.speckle_fraction = 0.02;
  spec.camera.speckle_strength = 130;
  const synth::Clip clip = synth::generate_clip(spec);

  seg::ObjectExtractor extractor;
  extractor.set_background(clip.background);
  FrameWorkspace ws;
  BinaryImage silhouette;
  BinaryImage filled;

  bench::print_rule();
  std::printf("%-7s %-14s %-12s %-12s %-10s %-10s\n", "frame", "stage", "raw IoU",
              "smooth IoU", "raw cc", "holes");
  bench::print_rule();
  double sum_raw = 0.0, sum_smooth = 0.0;
  for (int i = 0; i < clip.frame_count(); i += 5) {
    extractor.extract_into(clip.frames[static_cast<std::size_t>(i)], ws, silhouette);
    const BinaryImage& truth = clip.clean_silhouettes[static_cast<std::size_t>(i)];
    const double raw_iou = iou(ws.raw_mask, truth);
    const double smooth_iou = iou(silhouette, truth);
    sum_raw += raw_iou;
    sum_smooth += smooth_iou;
    // Components in the raw mask (speckle) and interior holes (Fig. 1b's
    // "small holes and ridged edges").
    const std::size_t raw_cc = component_count(ws.raw_mask);
    // Holes: foreground gained by hole filling the smoothed mask.
    fill_holes_into(ws.smoothed, ws.reached, ws.flood_stack, filled);
    const std::size_t holes = count_foreground(filled) - count_foreground(ws.smoothed);
    std::printf("%-7d %-14s %-12.3f %-12.3f %-10zu %-10zu\n", i,
                std::string(pose::stage_name(clip.truth[static_cast<std::size_t>(i)].stage)).c_str(),
                raw_iou, smooth_iou, raw_cc, holes);
  }
  bench::print_rule();
  const double n = (clip.frame_count() + 4) / 5;
  std::printf("mean IoU:   raw %.3f  ->  smoothed+cleaned %.3f\n", sum_raw / n, sum_smooth / n);
  std::printf("paper (qualitative): smoothing removes the small holes and ridged edges\n");

  // Triptych dump of a mid-jump frame.
  const int pick = 20;
  extractor.extract_into(clip.frames[pick], ws, silhouette);
  write_ppm(clip.frames[pick], "fig1_a_input.ppm");
  write_pgm(binary_to_gray(ws.raw_mask), "fig1_b_extracted.pgm");
  write_pgm(binary_to_gray(silhouette), "fig1_c_smoothed.pgm");
  std::printf("wrote fig1_a_input.ppm, fig1_b_extracted.pgm, fig1_c_smoothed.pgm\n");
  return 0;
}
