// P2 — component micro-benchmarks (google-benchmark): per-stage cost of the
// pipeline the paper runs per frame, plus DBN inference and end-to-end
// frame throughput. Every vision row times the shipped workspace function on
// a workspace reused across iterations, as the engines run it.
#include <benchmark/benchmark.h>

#include "core/analyzer.hpp"
#include "core/trainer.hpp"
#include "imaging/connected.hpp"
#include "imaging/filters.hpp"
#include "imaging/morphology.hpp"
#include "skelgraph/artifacts.hpp"
#include "skelgraph/simplify.hpp"
#include "synth/dataset.hpp"
#include "thinning/zhang_suen.hpp"

namespace {

using namespace slj;

const synth::Clip& bench_clip() {
  static const synth::Clip clip = [] {
    synth::ClipSpec spec;
    spec.seed = 99;
    spec.frame_count = 45;
    return synth::generate_clip(spec);
  }();
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
  BinaryImage raw_mask;  ///< thresholded D (median input)
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
    median_filter_binary_into(raw, 5, ws.mask_integral, ws.median_colsum, smoothed);
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

void BM_CleanSkeletonWorkspace(benchmark::State& state) {
  FrameWorkspace ws;
  for (auto _ : state) {
    skel::SkeletonGraph g = skel::clean_skeleton(mid_observation().raw_skeleton, ws);
    skel::split_edges_at_bends(g);
    benchmark::DoNotOptimize(g.alive_edge_count());
  }
}
BENCHMARK(BM_CleanSkeletonWorkspace);

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
