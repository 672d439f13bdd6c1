// The traced run (--trace 1): per-layer timings taken from outside, around
// the library's public per-stage functions, on a separate run so that the
// end-to-end workloads stay untraced.
//
//   1. Staged single-lane pass over the corpus: the stage functions called
//      in FramePipeline::process_into order, each timed, with the output
//      checked bit for bit against process_into itself. It alternates with
//      an untraced process_into pass, whose time prices the tracing.
//   2. The batch job (evaluate_dataset) at one lane and at every lane,
//      alternating: the single-lane baseline and the parallel efficiency.
//   3. StreamManager::tick_into at the reference load with the live lanes.
//   4. A short live_60fps_recorded run for the ingest, obs and replay layers.
//
// Every pass takes a share of --seconds; each metric is a median, a
// quantile or a ratio of totals over the pass.
#include <algorithm>
#include <cstdio>

#include "core/clip_engine.hpp"
#include "core/evaluation.hpp"
#include "core/pipeline.hpp"
#include "core/stream_engine.hpp"
#include "harness.hpp"
#include "live.hpp"
#include "pose/decoders.hpp"
#include "skelgraph/simplify.hpp"
#include "thinning/zhang_suen.hpp"

namespace slj::perfbench {

namespace {

using std::chrono::duration;

double us_since(Clock::time_point t0) {
  return duration<double, std::micro>(Clock::now() - t0).count();
}

bool same_graph(const skel::SkeletonGraph& a, const skel::SkeletonGraph& b) {
  if (a.nodes().size() != b.nodes().size() || a.edges().size() != b.edges().size()) return false;
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const skel::Node& x = a.nodes()[i];
    const skel::Node& y = b.nodes()[i];
    if (x.id != y.id || !(x.pos == y.pos) || x.type != y.type || x.alive != y.alive ||
        x.cluster != y.cluster) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.edges().size(); ++i) {
    const skel::Edge& x = a.edges()[i];
    const skel::Edge& y = b.edges()[i];
    if (x.id != y.id || x.a != y.a || x.b != y.b || x.path != y.path || x.length != y.length ||
        x.alive != y.alive) {
      return false;
    }
  }
  return true;
}

bool same_observation(const core::FrameObservation& a, const core::FrameObservation& b) {
  if (!(a.silhouette == b.silhouette) || !(a.raw_skeleton == b.raw_skeleton) ||
      !same_graph(a.graph, b.graph) || a.bottom_row != b.bottom_row ||
      a.key_points.size() != b.key_points.size() || a.candidates.size() != b.candidates.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.key_points.size(); ++i) {
    if (!(a.key_points[i].pos == b.key_points[i].pos) ||
        a.key_points[i].type != b.key_points[i].type) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    const pose::FeatureCandidate& x = a.candidates[i];
    const pose::FeatureCandidate& y = b.candidates[i];
    if (!(x.features == y.features) || !(x.waist == y.waist) || x.nodes != y.nodes ||
        x.occupancy != y.occupancy || x.unexplained_areas != y.unexplained_areas) {
      return false;
    }
  }
  return true;
}

/// Lowest silhouette row, as the pipeline derives the airborne observable.
int bottom_row(const BinaryImage& silhouette) {
  for (int y = silhouette.height() - 1; y >= 0; --y) {
    for (int x = 0; x < silhouette.width(); ++x) {
      if (silhouette.at(x, y) != 0) return y;
    }
  }
  return -1;
}

struct StageSamples {
  Samples extract_us, thin_us, clean_us, features_us, classify_us, filter_us;
  double viterbi_us = 0.0;
  std::uint64_t frames = 0, passes = 0, loops_cut = 0, branches_pruned = 0, candidates = 0;
  double staged_us = 0.0;    ///< summed stage time of every staged frame
  double untraced_us = 0.0;  ///< process_into time of every untraced frame
  std::uint64_t untraced_frames = 0;
  std::uint64_t mismatches = 0;
};

/// One clip through the stage functions, then through process_into.
void staged_clip(const Corpus& corpus, std::size_t c, core::FramePipeline& pipeline,
                 FrameWorkspace& ws, StageSamples& out) {
  const synth::Clip& clip = corpus.clips[c];
  const core::PipelineParams& params = pipeline.params();
  pipeline.set_background(clip.background);

  std::vector<std::vector<pose::FeatureCandidate>> candidate_sets;
  std::vector<bool> airborne;
  core::GroundMonitor ground;
  pose::PoseDbnClassifier::SequenceState state = corpus.classifier.initial_state();
  pose::OnlineForwardDecoder filter(corpus.classifier);
  core::FrameObservation obs, expected;
  for (std::size_t f = 0; f < clip.frames.size(); ++f) {
    const RgbImage& frame = clip.frames[f];
    Clock::time_point t = Clock::now();
    pipeline.extractor().extract_into(frame, ws, obs.silhouette);
    const double extract = us_since(t);

    thin::ThinningStats thinning;
    t = Clock::now();
    thin::zhang_suen_thin_into(obs.silhouette, ws, obs.raw_skeleton, &thinning);
    const double thinned = us_since(t);

    t = Clock::now();
    obs.graph = skel::clean_skeleton(obs.raw_skeleton, ws, params.min_branch_vertices,
                                     &obs.cleanup);
    if (params.split_bends) skel::split_edges_at_bends(obs.graph, params.bend_tolerance);
    obs.key_points = skel::extract_key_points(obs.graph);
    const double cleaned = us_since(t);

    t = Clock::now();
    obs.candidates = pose::enumerate_candidates(obs.graph, pipeline.encoder(), params.candidates);
    const double featured = us_since(t);
    obs.bottom_row = bottom_row(obs.silhouette);

    out.extract_us.add(extract);
    out.thin_us.add(thinned);
    out.clean_us.add(cleaned);
    out.features_us.add(featured);
    out.staged_us += extract + thinned + cleaned + featured;
    out.passes += static_cast<std::uint64_t>(thinning.iterations);
    out.loops_cut += obs.cleanup.loops.loops_before - obs.cleanup.loops.loops_after;
    out.branches_pruned += obs.cleanup.prune.branches_removed;
    out.candidates += obs.candidates.size();
    ++out.frames;

    pipeline.process_into(frame, ws, expected);
    if (!same_observation(obs, expected)) ++out.mismatches;

    // Decoding: the paper's per-frame rule and the forward filter.
    const bool flying = ground.airborne(obs.bottom_row);
    t = Clock::now();
    const pose::FrameResult result = corpus.classifier.classify(obs.candidates, flying, state);
    out.classify_us.add(us_since(t));
    if (!same_result(result, corpus.reference[c].frames[f])) ++out.mismatches;
    t = Clock::now();
    filter.push(obs.candidates, flying);
    out.filter_us.add(us_since(t));
    candidate_sets.push_back(obs.candidates);
    airborne.push_back(flying);
  }
  const Clock::time_point t = Clock::now();
  const std::vector<pose::FrameResult> viterbi = pose::decode_sequence(
      corpus.classifier, candidate_sets, airborne, pose::SequenceDecoder::kViterbi);
  out.viterbi_us += us_since(t);
  if (viterbi.size() != clip.frames.size()) ++out.mismatches;
}

/// The same clip through process_into alone, timed as a whole.
void untraced_clip(const synth::Clip& clip, core::FramePipeline& pipeline, FrameWorkspace& ws,
                   StageSamples& out) {
  pipeline.set_background(clip.background);
  core::FrameObservation obs;
  const Clock::time_point t = Clock::now();
  for (const RgbImage& frame : clip.frames) pipeline.process_into(frame, ws, obs);
  out.untraced_us += us_since(t);
  out.untraced_frames += clip.frames.size();
}

void report_stages(const StageSamples& st, Report& report) {
  const double frames = static_cast<double>(std::max<std::uint64_t>(st.frames, 1));
  report.check("layers.staged_pass_equals_process_into", st.mismatches == 0, st.mismatches);
  report.metric("segmentation.extract_us_p50", st.extract_us.quantile(0.50), "us");
  report.metric("segmentation.extract_us_p99", st.extract_us.quantile(0.99), "us");
  report.metric("thinning.thin_us_p50", st.thin_us.quantile(0.50), "us");
  report.metric("thinning.passes_per_frame", static_cast<double>(st.passes) / frames, "count");
  report.metric("skelgraph.clean_us_p50", st.clean_us.quantile(0.50), "us");
  report.metric("skelgraph.loops_cut_per_frame", static_cast<double>(st.loops_cut) / frames,
                "count");
  report.metric("skelgraph.branches_pruned_per_frame",
                static_cast<double>(st.branches_pruned) / frames, "count");
  report.metric("pose.features_us_p50", st.features_us.quantile(0.50), "us");
  report.metric("pose.candidates_per_frame", static_cast<double>(st.candidates) / frames, "count");
  report.metric("pose.classify_us_p50", st.classify_us.quantile(0.50), "us");
  report.metric("pose.filter_us_p50", st.filter_us.quantile(0.50), "us");
  report.metric("pose.viterbi_us_per_frame", st.viterbi_us / frames, "us");
  report.metric("layers.staged_frames", frames, "count");
  const double staged_per_frame = st.staged_us / frames;
  const double untraced_per_frame =
      st.untraced_us / static_cast<double>(std::max<std::uint64_t>(st.untraced_frames, 1));
  report.metric("layers.untraced_vision_us_per_frame", untraced_per_frame, "us");
  report.metric("trace.overhead_pct", 100.0 * (staged_per_frame / untraced_per_frame - 1.0), "%");
}

/// Single-lane and all-lane evaluate_dataset over the corpus, alternating
/// until `seconds` have passed; reports the medians of the per-pass rates.
void batch_scaling(const Corpus& corpus, double seconds, Report& report) {
  std::vector<std::vector<synth::Clip>> jobs;
  jobs.reserve(corpus.clips.size());
  for (const synth::Clip& clip : corpus.clips) jobs.push_back({clip});
  core::ClipEngineConfig one;
  one.workers = 1;
  core::ClipEngineConfig all;
  all.workers = thread_budget();
  const auto pass = [&](core::ClipEngine& engine) {
    const Clock::time_point t = Clock::now();
    for (const auto& job : jobs) core::evaluate_dataset(corpus.classifier, engine, job);
    return static_cast<double>(corpus.frame_count()) / seconds_since(t);
  };
  core::ClipEngine single_lane(core::PipelineParams{}, one);
  core::ClipEngine all_lanes(core::PipelineParams{}, all);
  const unsigned lanes = all_lanes.lanes();
  std::vector<double> single, parallel;
  const Clock::time_point t0 = Clock::now();
  do {
    single.push_back(pass(single_lane));
    parallel.push_back(pass(all_lanes));
  } while (seconds_since(t0) < seconds);
  const double single_fps = median(single);
  report.metric("core.single_lane_frames_per_s", single_fps, "1/s");
  report.metric("core.batch_frames_per_s", median(parallel), "1/s");
  report.metric("core.parallel_efficiency", median(parallel) / (lanes * single_fps), "ratio");
}

/// tick_into at the reference load: one frame per session per tick, with
/// the live workloads' lane count; finished clips close and reopen.
void tick_pass(const Corpus& corpus, double seconds, Report& report) {
  core::StreamManagerConfig config;
  config.workers = thread_budget() > 2 ? thread_budget() - 1 : 1;
  core::StreamManager manager(corpus.classifier, core::PipelineParams{}, config);
  struct Feed {
    int session = -1;
    std::size_t clip = 0;
    std::size_t frame = 0;
  };
  std::vector<Feed> feeds(kReferenceSessions);
  std::size_t next_clip = 0;
  const auto open = [&](Feed& feed) {
    feed.clip = next_clip++ % corpus.clips.size();
    feed.frame = 0;
    feed.session = manager.open_session(corpus.clips[feed.clip].background);
  };
  for (Feed& feed : feeds) open(feed);
  std::vector<core::StreamManager::Feed> batch(feeds.size());
  std::vector<core::StreamUpdate> updates;
  Samples tick_ms;
  std::uint64_t mismatches = 0;
  const Clock::time_point t0 = Clock::now();
  while (seconds_since(t0) < seconds || tick_ms.size() < 100) {
    for (std::size_t i = 0; i < feeds.size(); ++i) {
      batch[i] = {feeds[i].session, &corpus.clips[feeds[i].clip].frames[feeds[i].frame]};
    }
    const Clock::time_point t = Clock::now();
    manager.tick_into(batch, updates);
    tick_ms.add(duration<double, std::milli>(Clock::now() - t).count());
    for (std::size_t i = 0; i < feeds.size(); ++i) {
      Feed& feed = feeds[i];
      const ClipReference& ref = corpus.reference[feed.clip];
      if (!same_result(updates[i].result, ref.frames[feed.frame])) ++mismatches;
      if (++feed.frame == corpus.clips[feed.clip].frames.size()) {
        if (!same_report(manager.close_session(feed.session), ref.report)) ++mismatches;
        open(feed);
      }
    }
  }
  report.check("core.tick_matches_reference", mismatches == 0, mismatches);
  report.metric("core.tick_ms_p50", tick_ms.quantile(0.50), "ms");
  report.metric("core.tick_ms_p99", tick_ms.quantile(0.99), "ms");
  report.metric("core.tick_lanes", manager.lanes(), "count");
}

}  // namespace

void run_layers(const Options& opt, Report& report) {
  struct LayerState {
    Corpus corpus;
  };
  const LayerState state = timed_setup<LayerState>(
      opt, report, [&](LayerState& s) { s.corpus = build_corpus(opt.seed, corpus_clips(opt)); });
  const Corpus& corpus = state.corpus;

  // 1. Staged vs untraced single-lane passes, alternating clip by clip.
  core::FramePipeline pipeline;
  FrameWorkspace ws;
  StageSamples stages;
  untraced_clip(corpus.clips[0], pipeline, ws, stages);  // warm the workspace
  stages.untraced_us = 0.0;
  stages.untraced_frames = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < corpus.clips.size() || seconds_since(t0) < 0.3 * opt.seconds; ++i) {
    const std::size_t c = i % corpus.clips.size();
    staged_clip(corpus, c, pipeline, ws, stages);
    untraced_clip(corpus.clips[c], pipeline, ws, stages);
  }
  report_stages(stages, report);
  std::fflush(stdout);

  // 2-3. Frame parallelism and the lockstep tick.
  batch_scaling(corpus, 0.2 * opt.seconds, report);
  tick_pass(corpus, 0.15 * opt.seconds, report);
  std::fflush(stdout);

  // 4. Ingest, obs and replay under the recorded reference load.
  LivePlan plan;
  plan.seed = opt.seed;
  plan.seconds = 0.35 * opt.seconds;
  plan.recorded = true;
  run_live_traffic(corpus, plan, report);
}

}  // namespace slj::perfbench
