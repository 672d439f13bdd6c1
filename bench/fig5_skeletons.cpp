// F5 — Figures 5 & 8: thinning-based skeletons across a full jump
// ("the extracted skeletons represent their respective poses pretty well").
// Reproduced as: per-stage mean distance between extracted key points and
// the ground-truth body parts, an ASCII contact sheet of representative
// frames, and PGM dumps.
#include "bench_common.hpp"
#include "imaging/ascii.hpp"
#include "imaging/image_io.hpp"

int main() {
  using namespace slj;
  bench::print_header("F5  skeletons across the jump (Fig. 5 / Fig. 8)",
                      "Fig. 8: skeleton extraction by thinning across the whole jump");

  synth::ClipSpec spec;
  spec.seed = 2025;
  spec.frame_count = 45;
  const synth::Clip clip = synth::generate_clip(spec);
  core::FramePipeline pipeline;
  pipeline.set_background(clip.background);
  FrameWorkspace ws;
  core::FrameObservation obs;

  // Per-stage key-point fidelity.
  double err_sum[pose::kStageCount] = {};
  int err_n[pose::kStageCount] = {};
  for (int i = 0; i < clip.frame_count(); ++i) {
    pipeline.process_into(clip.frames[static_cast<std::size_t>(i)], ws, obs);
    const synth::FrameTruth& truth = clip.truth[static_cast<std::size_t>(i)];
    const PointF parts[4] = {truth.parts.head, truth.parts.hand, truth.parts.knee,
                             truth.parts.foot};
    double frame_err = 0.0;
    for (const PointF& p : parts) {
      double best = 1e9;
      for (const auto& kp : obs.key_points) best = std::min(best, distance(to_f(kp.pos), p));
      frame_err += best;
    }
    const int s = pose::index_of(truth.stage);
    err_sum[s] += frame_err / 4.0;
    ++err_n[s];
  }

  bench::print_rule();
  std::printf("%-16s %-10s %-26s\n", "stage", "frames", "mean keypoint->part dist (px)");
  bench::print_rule();
  for (int s = 0; s < pose::kStageCount; ++s) {
    std::printf("%-16s %-10d %-26.2f\n",
                std::string(pose::stage_name(pose::stage_from_index(s))).c_str(), err_n[s],
                err_n[s] > 0 ? err_sum[s] / err_n[s] : 0.0);
  }
  bench::print_rule();
  std::printf("paper (qualitative): skeletons \"represent their respective poses pretty "
              "well\" — distances should stay within a few pixels of the limb radius\n\n");

  // Contact sheet like Fig. 8.
  for (const int i : {2, 12, 19, 24, 30, 40}) {
    pipeline.process_into(clip.frames[static_cast<std::size_t>(i)], ws, obs);
    const BinaryImage skel_img =
        obs.graph.rasterize(obs.silhouette.width(), obs.silhouette.height());
    std::printf("frame %d  [%s]  %s\n", i,
                std::string(pose::stage_name(clip.truth[static_cast<std::size_t>(i)].stage)).c_str(),
                std::string(pose::pose_name(clip.truth[static_cast<std::size_t>(i)].pose)).c_str());
    std::printf("%s\n", ascii_render_overlay(obs.silhouette, skel_img, 64).c_str());
    if (i == 19) {
      write_pgm(binary_to_gray(obs.silhouette), "fig5_silhouette.pgm");
      write_pgm(binary_to_gray(skel_img), "fig5_skeleton.pgm");
    }
  }
  std::printf("wrote fig5_silhouette.pgm, fig5_skeleton.pgm\n");
  return 0;
}
