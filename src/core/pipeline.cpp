#include "core/pipeline.hpp"

#include <stdexcept>

#include "core/simd.hpp"
#include "obs/tracer.hpp"
#include "skelgraph/simplify.hpp"
#include "thinning/zhang_suen.hpp"

namespace slj::core {

void require_same_area_count(const PipelineParams& params, const pose::ClassifierConfig& config) {
  if (params.num_areas != config.num_areas) {
    throw std::invalid_argument("pipeline and classifier must agree on the area count");
  }
}

FramePipeline::FramePipeline(PipelineParams params)
    : params_(params), encoder_(params.num_areas) {}

void FramePipeline::set_background(const RgbImage& background) {
  extractor_.set_background(background);
}

SLJ_HOT_PATH void FramePipeline::process_into(const RgbImage& frame, FrameWorkspace& ws,
                                              FrameObservation& out) const {
  obs::TraceSpan trace("vision");
  {
    obs::TraceSpan span("extract");
    extractor_.extract_into(frame, ws, out.silhouette);
  }
  finish_observation(ws, out);
}

void FramePipeline::process_silhouette_into(const BinaryImage& silhouette, FrameWorkspace& ws,
                                            FrameObservation& out) const {
  out.silhouette = silhouette;
  finish_observation(ws, out);
}

void FramePipeline::finish_observation(FrameWorkspace& ws, FrameObservation& obs) const {
  {
    obs::TraceSpan span("thin");
    thin::zhang_suen_thin_into(obs.silhouette, ws, obs.raw_skeleton);
  }
  {
    obs::TraceSpan span("skelgraph");
    obs.graph = skel::clean_skeleton(obs.raw_skeleton, ws, PipelineParams::min_branch_vertices,
                                     &obs.cleanup);
    skel::split_edges_at_bends(obs.graph, PipelineParams::bend_tolerance);
    obs.key_points = skel::extract_key_points(obs.graph);
  }
  obs::TraceSpan span("features");
  obs.candidates = pose::enumerate_candidates(obs.graph, encoder_, params_.candidates);
  obs.bottom_row = -1;
  const std::size_t w = static_cast<std::size_t>(obs.silhouette.width());
  const std::uint8_t* data = obs.silhouette.data().data();
  for (int y = obs.silhouette.height() - 1; y >= 0; --y) {
    const std::uint8_t* row = data + static_cast<std::size_t>(y) * w;
    if (simd::find_nonzero<simd::Active>(row, w) != w) {
      obs.bottom_row = y;
      break;
    }
  }
}

}  // namespace slj::core
