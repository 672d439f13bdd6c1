// F2 — Figure 2: raw Zhang–Suen output suffers from loops, corners and
// redundant line segments, and is sensitive to noise. Quantified here as
// per-frame artifact counts over one clip, before any graph cleanup.
#include "bench_common.hpp"
#include "skelgraph/artifacts.hpp"
#include "thinning/zhang_suen.hpp"

int main() {
  using namespace slj;
  bench::print_header("F2  raw thinning artifacts",
                      "Fig. 2: loops, corners and redundant line segments in Z-S output");

  synth::ClipSpec spec;
  spec.seed = 2025;
  spec.frame_count = 45;
  const synth::Clip clip = synth::generate_clip(spec);
  seg::ObjectExtractor extractor;
  extractor.set_background(clip.background);
  FrameWorkspace ws;
  BinaryImage sil;
  BinaryImage skeleton;

  bench::print_rule();
  std::printf("%-7s %-10s %-8s %-12s %-12s %-14s %-12s\n", "frame", "skel px", "loops",
              "junc px", "junc clus", "adj-junc rm", "short br");
  bench::print_rule();

  std::size_t frames_with_loops = 0, total_loops = 0, total_short = 0, total_adjacent = 0;
  for (int i = 0; i < clip.frame_count(); ++i) {
    extractor.extract_into(clip.frames[static_cast<std::size_t>(i)], ws, sil);
    thin::zhang_suen_thin_into(sil, ws, skeleton);
    const skel::ArtifactReport report = skel::analyze_artifacts(skeleton);
    if (report.loops > 0) ++frames_with_loops;
    total_loops += report.loops;
    total_short += report.short_branches;
    total_adjacent += report.adjacent_junctions;
    if (i % 5 == 0) {
      std::printf("%-7d %-10zu %-8zu %-12zu %-12zu %-14zu %-12zu\n", i, report.skeleton_pixels,
                  report.loops, report.junction_pixels, report.junction_clusters,
                  report.adjacent_junctions, report.short_branches);
    }
  }
  bench::print_rule();
  std::printf("frames with >=1 loop: %zu / %d\n", frames_with_loops, clip.frame_count());
  std::printf("total loops: %zu | total short (noisy) branches: %zu | total adjacent "
              "junction pixels removed: %zu\n",
              total_loops, total_short, total_adjacent);
  std::printf("paper (qualitative): thinning \"can result in loops, corners, and redundant "
              "line segments\" and \"is sensitive to noise\"\n");
  return 0;
}
