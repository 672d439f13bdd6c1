#include "reference.hpp"
#include "skelgraph/simplify.hpp"

namespace slj::reference {

core::FrameObservation process_silhouette(const core::FramePipeline& pipeline,
                                          const BinaryImage& silhouette) {
  const core::PipelineParams& params = pipeline.params();
  core::FrameObservation obs;
  obs.silhouette = silhouette;
  obs.raw_skeleton = zhang_suen_thin(obs.silhouette);
  obs.graph = clean_skeleton(obs.raw_skeleton, params.min_branch_vertices, &obs.cleanup);
  skel::split_edges_at_bends(obs.graph, params.bend_tolerance);
  obs.key_points = skel::extract_key_points(obs.graph);
  obs.candidates = pose::enumerate_candidates(obs.graph, pipeline.encoder(), params.candidates);
  for (int y = silhouette.height() - 1; y >= 0 && obs.bottom_row < 0; --y) {
    for (int x = 0; x < silhouette.width(); ++x) {
      if (silhouette.at(x, y)) {
        obs.bottom_row = y;
        break;
      }
    }
  }
  return obs;
}

core::FrameObservation process(const core::FramePipeline& pipeline, const RgbImage& background,
                               const RgbImage& frame) {
  return process_silhouette(pipeline, silhouette(background, frame));
}

core::ClipObservation process_clip(const core::FramePipeline& pipeline, const synth::Clip& clip) {
  core::GroundMonitor ground;
  core::ClipObservation ref;
  for (const RgbImage& frame : clip.frames) {
    ref.frames.push_back(process(pipeline, clip.background, frame));
    const bool flying = ground.airborne(ref.frames.back().bottom_row);
    ref.airborne.push_back(flying);
    if (flying) ++ref.airborne_frames;
    if (ref.frames.back().bottom_row < 0) ++ref.empty_frames;
  }
  ref.ground_row = ground.ground_row();
  return ref;
}

}  // namespace slj::reference
