// batch_clips: offline scoring of the seed-generated corpus, closed loop.
// Each request is one recorded jump: evaluate_dataset(classifier, engine,
// {clip}) returns the clip's per-frame poses, and the next request is sent
// when the previous one returns. evaluate_dataset walks a corpus clip by
// clip anyway, so one clip per call is the same work split at the seams
// where a caller can time it.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "core/clip_engine.hpp"
#include "core/evaluation.hpp"
#include "harness.hpp"

namespace slj::perfbench {

namespace {

struct BatchState {
  Corpus corpus;
  std::unique_ptr<core::ClipEngine> engine;
  /// One single-clip dataset per corpus clip (the clips are moved here).
  std::vector<std::vector<synth::Clip>> jobs;
};

}  // namespace

void run_batch(const Options& opt, Report& report) {
  const unsigned lanes = thread_budget();
  BatchState state = timed_setup<BatchState>(opt, report, [&](BatchState& s) {
    s.corpus = build_corpus(opt.seed, corpus_clips(opt));
    core::ClipEngineConfig config;
    config.workers = lanes;  // lanes - 1 pool threads plus the calling thread
    s.engine = std::make_unique<core::ClipEngine>(core::PipelineParams{}, config);
    s.jobs.clear();
    for (synth::Clip& clip : s.corpus.clips) s.jobs.push_back({std::move(clip)});
    s.corpus.clips.clear();
    // Warm-up: size every lane's workspace and touch the corpus pages.
    for (const auto& job : s.jobs) core::evaluate_dataset(s.corpus.classifier, *s.engine, job);
  });
  std::printf("batch_clips: %zu clips x %d frames, %u lanes\n", state.jobs.size(), kClipFrames,
              state.engine->lanes());
  report.check("threads.within_budget", state.engine->lanes() <= lanes);

  // A seeded visiting order, so the request sequence is an input too.
  std::vector<std::size_t> order(state.jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::shuffle(order.begin(), order.end(), std::mt19937(opt.seed));

  Samples latency_ms;
  latency_ms.reserve(static_cast<std::size_t>(opt.seconds * 2000) + order.size());
  std::uint64_t frames = 0;
  std::uint64_t correct_frames = 0;
  std::uint64_t mismatched_frames = 0;
  std::size_t requests = 0;
  double busy_s = 0.0;
  const Clock::time_point t0 = Clock::now();
  // At least one full pass, so every clip is checked against the reference.
  while (requests < order.size() || seconds_since(t0) < opt.seconds) {
    const std::size_t c = order[requests % order.size()];
    const Clock::time_point start = Clock::now();
    const core::DatasetEvaluation eval =
        core::evaluate_dataset(state.corpus.classifier, *state.engine, state.jobs[c]);
    const double took = seconds_since(start);
    busy_s += took;
    latency_ms.add(took * 1e3);
    ++requests;

    const core::ClipEvaluation& clip = eval.clips.front();
    const ClipReference& ref = state.corpus.reference[c];
    frames += clip.frames;
    correct_frames += clip.correct;
    for (std::size_t f = 0; f < clip.results.size(); ++f) {
      if (f >= ref.frames.size() || !same_result(clip.results[f], ref.frames[f])) {
        ++mismatched_frames;
      }
    }
    if (clip.results.size() != ref.frames.size()) mismatched_frames += ref.frames.size();
  }

  report.attempt(frames);
  report.check("batch.frames_match_reference", mismatched_frames == 0, mismatched_frames);
  report.metric("frames_per_s", static_cast<double>(frames) / busy_s, "1/s");
  report.metric("latency_p50_ms", latency_ms.quantile(0.50), "ms");
  report.metric("latency_p99_ms", latency_ms.quantile(0.99), "ms");
  report.metric("latency_samples", static_cast<double>(latency_ms.size()), "count");
  report.metric("latency_beyond_p99",
                static_cast<double>(latency_ms.count_above(latency_ms.quantile(0.99))), "count");
  report.metric("pose_accuracy",
                100.0 * static_cast<double>(correct_frames) / static_cast<double>(frames), "%");
  report.metric("failed_pct",
                100.0 * static_cast<double>(report.failed()) / static_cast<double>(frames), "%");
  report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
}

}  // namespace slj::perfbench
