// Skeleton viewer: ASCII visualisation of every pipeline stage for selected
// frames of a jump — the closest a terminal gets to the paper's Figures 1,
// 5 and 8.
#include <cstdio>

#include "core/pipeline.hpp"
#include "imaging/ascii.hpp"
#include "synth/dataset.hpp"

int main() {
  using namespace slj;

  synth::ClipSpec cs;
  cs.seed = 7;
  cs.frame_count = 45;
  const synth::Clip clip = synth::generate_clip(cs);

  core::FramePipeline pipeline;
  pipeline.set_background(clip.background);

  // One frame per stage: preparation, crouch, take-off, flight, landing.
  const int picks[] = {4, 13, 19, 26, 38};
  FrameWorkspace ws;
  core::FrameObservation obs;
  for (const int idx : picks) {
    pipeline.process_into(clip.frames[static_cast<std::size_t>(idx)], ws, obs);
    const synth::FrameTruth& truth = clip.truth[static_cast<std::size_t>(idx)];
    std::printf("--- frame %d | stage: %s | pose: %s ---\n", idx,
                std::string(pose::stage_name(truth.stage)).c_str(),
                std::string(pose::pose_name(truth.pose)).c_str());
    const BinaryImage skeleton =
        obs.graph.rasterize(obs.silhouette.width(), obs.silhouette.height());
    std::printf("%s", ascii_render_overlay(obs.silhouette, skeleton).c_str());
    std::printf("key points: %zu | loops cut: %zu | branches pruned: %zu\n\n",
                obs.key_points.size(), obs.cleanup.loops.edges_removed,
                obs.cleanup.prune.branches_removed);
  }
  return 0;
}
