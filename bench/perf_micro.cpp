// P2 — component micro-benchmarks (google-benchmark): per-stage cost of the
// pipeline the paper runs per frame, plus DBN inference, end-to-end frame
// throughput and the synthetic camera that renders every frame. Every
// vision row times the shipped workspace function on a workspace reused
// across iterations, as the engines run it.
//
// perfbench runs its workloads on one malloc arena (mallopt M_ARENA_MAX = 1),
// where heap traffic from concurrent lanes contends on one lock. To see what
// a stage's allocations cost under that setting, run the threaded rows the
// same way:
//   MALLOC_ARENA_MAX=1 build/perf_micro --benchmark_filter='CleanSkeleton'
// and compare /threads:4 with the single-thread row.
#include <benchmark/benchmark.h>

#include <vector>

#include "core/analyzer.hpp"
#include "core/trainer.hpp"
#include "imaging/connected.hpp"
#include "imaging/filters.hpp"
#include "imaging/morphology.hpp"
#include "skelgraph/artifacts.hpp"
#include "skelgraph/simplify.hpp"
#include "synth/dataset.hpp"
#include "synth/renderer.hpp"
#include "synth/rng.hpp"
#include "thinning/zhang_suen.hpp"

namespace {

using namespace slj;

synth::ClipSpec bench_spec() {
  synth::ClipSpec spec;
  spec.seed = 99;
  spec.frame_count = 45;
  return spec;
}

const synth::Clip& bench_clip() {
  static const synth::Clip clip = synth::generate_clip(bench_spec());
  return clip;
}

const RgbImage& mid_frame() { return bench_clip().frames[22]; }

/// Every stage's output for the mid frame, as the pipeline ships it.
const core::FrameObservation& mid_observation() {
  static const core::FrameObservation obs = [] {
    core::FramePipeline pipeline;
    pipeline.set_background(bench_clip().background);
    FrameWorkspace ws;
    core::FrameObservation out;
    pipeline.process_into(mid_frame(), ws, out);
    return out;
  }();
  return obs;
}

/// The extractor's intermediate masks for the mid frame: what the median,
/// the largest-component pass and the hole fill each take as input.
struct MidMasks {
  BinaryImage raw_mask;  ///< thresholded T = 36·D (median input)
  BinaryImage smoothed;  ///< median output (largest-component input)
  BinaryImage largest;   ///< largest component (hole-fill input)
};

const MidMasks& mid_masks() {
  static const MidMasks masks = [] {
    seg::ObjectExtractor extractor;
    extractor.set_background(bench_clip().background);
    FrameWorkspace ws;
    BinaryImage sil;
    extractor.extract_into(mid_frame(), ws, sil);
    return MidMasks{ws.raw_mask, ws.smoothed, ws.largest};
  }();
  return masks;
}

void BM_RenderFrame(benchmark::State& state) {
  // The camera behind every generated frame: noise and speckle over the
  // mid-jump 288×160 mask, one stream across iterations as a clip draws it.
  const BinaryImage mask = synth::render_clean_silhouettes(bench_spec())[22];
  const synth::SilhouetteRenderer renderer(bench_spec().camera);
  synth::Rng rng(bench_spec().seed);
  for (auto _ : state) {
    const RgbImage frame = renderer.render_frame(mask, rng);
    benchmark::DoNotOptimize(frame.data().data());
  }
}
BENCHMARK(BM_RenderFrame);

void BM_PolarPairs(benchmark::State& state) {
  // A 288×160 frame's 3·w·h/2 = 69 120 polar pairs in one bulk draw.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n), y(n), r2(n);
  synth::Rng rng(bench_spec().seed);
  for (auto _ : state) {
    synth::polar_pairs(rng, n, x.data(), y.data(), r2.data());
    benchmark::DoNotOptimize(r2.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_PolarPairs)->Arg(69120);

void BM_ExtractInto(benchmark::State& state) {
  seg::ObjectExtractor extractor;
  extractor.set_background(bench_clip().background);
  FrameWorkspace ws;
  BinaryImage sil;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.extract_into(mid_frame(), ws, sil));
  }
}
BENCHMARK(BM_ExtractInto);

void BM_DifferenceInto(benchmark::State& state) {
  // Steps ii–v on integers: the frame's window sums, T = 36·D against the
  // plate's sums, and max(D) from the pixels where T peaks.
  seg::ObjectExtractor extractor;
  extractor.set_background(bench_clip().background);
  FrameWorkspace ws;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.difference_into(mid_frame(), ws));
  }
}
BENCHMARK(BM_DifferenceInto);

void BM_MedianFilterBinaryInto(benchmark::State& state) {
  const BinaryImage& raw = mid_masks().raw_mask;
  FrameWorkspace ws;
  BinaryImage smoothed;
  for (auto _ : state) {
    median_filter_binary_into(raw, seg::ObjectExtractor::kMedianWindow, ws.median_colsum,
                              smoothed);
    benchmark::DoNotOptimize(smoothed.data().data());
  }
}
BENCHMARK(BM_MedianFilterBinaryInto);

void BM_LargestComponentInto(benchmark::State& state) {
  const BinaryImage& smoothed = mid_masks().smoothed;
  FrameWorkspace ws;
  BinaryImage largest;
  for (auto _ : state) {
    largest_component_into(smoothed, true, ws.labeling, ws.pixel_stack, largest);
    benchmark::DoNotOptimize(largest.data().data());
  }
}
BENCHMARK(BM_LargestComponentInto);

void BM_FillHolesInto(benchmark::State& state) {
  const BinaryImage& largest = mid_masks().largest;
  FrameWorkspace ws;
  BinaryImage filled;
  for (auto _ : state) {
    fill_holes_into(largest, ws.reached, ws.flood_stack, filled);
    benchmark::DoNotOptimize(filled.data().data());
  }
}
BENCHMARK(BM_FillHolesInto);

void BM_ZhangSuenThinInto(benchmark::State& state) {
  const BinaryImage& sil = mid_observation().silhouette;
  FrameWorkspace ws;
  BinaryImage skeleton;
  for (auto _ : state) {
    thin::zhang_suen_thin_into(sil, ws, skeleton);
    benchmark::DoNotOptimize(skeleton.data().data());
  }
}
BENCHMARK(BM_ZhangSuenThinInto);

void BM_SetBackground(benchmark::State& state) {
  // What ClipEngine pays per clip, on the calling thread, before the clip's
  // frames fan out: a fresh pipeline and its background plate (the
  // plate's 16-bit window sums).
  for (auto _ : state) {
    core::FramePipeline pipeline;
    pipeline.set_background(bench_clip().background);
    benchmark::DoNotOptimize(&pipeline);
  }
}
BENCHMARK(BM_SetBackground);

void BM_CleanSkeletonWorkspace(benchmark::State& state) {
  FrameWorkspace ws;  // one per thread, as one per engine lane
  for (auto _ : state) {
    skel::SkeletonGraph g = skel::clean_skeleton(mid_observation().raw_skeleton, ws);
    skel::split_edges_at_bends(g);
    benchmark::DoNotOptimize(g.alive_edge_count());
  }
}
BENCHMARK(BM_CleanSkeletonWorkspace);
// Four lanes at once: with one malloc arena, per-pixel heap traffic shows
// up here as lock contention.
BENCHMARK(BM_CleanSkeletonWorkspace)->Threads(4)->UseRealTime();

void BM_FeatureCandidates(benchmark::State& state) {
  const pose::AreaEncoder enc(8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pose::enumerate_candidates(mid_observation().graph, enc));
  }
}
BENCHMARK(BM_FeatureCandidates);

pose::PoseDbnClassifier& trained_classifier() {
  static pose::PoseDbnClassifier clf = [] {
    synth::DatasetSpec spec;
    spec.train_clip_frames = {44, 43, 44, 43};
    spec.test_clip_frames = {};
    const synth::Dataset ds = synth::generate_dataset(spec);
    core::FramePipeline pipeline;
    pose::PoseDbnClassifier c;
    core::train_on_dataset(c, pipeline, ds);
    return c;
  }();
  return clf;
}

void BM_DbnFrameInference(benchmark::State& state) {
  pose::PoseDbnClassifier& clf = trained_classifier();
  for (auto _ : state) {
    auto st = clf.initial_state();
    benchmark::DoNotOptimize(clf.classify(mid_observation().candidates, false, st));
  }
}
BENCHMARK(BM_DbnFrameInference);

void BM_ProcessIntoEndToEnd(benchmark::State& state) {
  pose::PoseDbnClassifier& clf = trained_classifier();
  core::FramePipeline pipeline;
  pipeline.set_background(bench_clip().background);
  FrameWorkspace ws;
  core::FrameObservation obs;
  for (auto _ : state) {
    pipeline.process_into(mid_frame(), ws, obs);
    auto st = clf.initial_state();
    benchmark::DoNotOptimize(clf.classify(obs.candidates, false, st));
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ProcessIntoEndToEnd);

void BM_ExactBnInference(benchmark::State& state) {
  // Enumeration over the exported Fig.-7(a) network with one observed part.
  const bayes::Network net =
      trained_classifier().build_pose_network(pose::PoseId::kStandHandsForward);
  bayes::Assignment evidence(static_cast<std::size_t>(net.node_count()), bayes::kUnobserved);
  evidence[static_cast<std::size_t>(*net.find("Hand"))] = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.posterior(0, evidence));
  }
}
BENCHMARK(BM_ExactBnInference);

}  // namespace

BENCHMARK_MAIN();
