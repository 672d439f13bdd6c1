// Golden parity suite for the FrameWorkspace chain: the shipped pipeline —
// column-sum window means, into-style segmentation, bit-parallel Zhang–Suen
// on the silhouette's box, workspace graph build — must produce
// bit-identical results to the straightforward seed implementations in
// tests/reference/, at every
// worker count and via the StreamEngine; the steady-state segmentation +
// thinning hot path must perform zero heap allocations, and the graph
// cleanup may allocate only for the graph it returns.
#include "imaging/frame_workspace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "core/clip_engine.hpp"
#include "core/stream_engine.hpp"
#include "imaging/draw.hpp"
#include "imaging/filters.hpp"
#include "imaging/morphology.hpp"
#include "reference.hpp"
#include "skelgraph/artifacts.hpp"
#include "synth/dataset.hpp"
#include "thinning/zhang_suen.hpp"

// ---- global allocation counter ---------------------------------------------
// Replacing the global allocator in this TU counts every heap allocation in
// the binary; the hot-path test reads the counter around a steady-state
// frame. (Alignment-overloaded news are not replaced: the pipeline's buffers
// are all default-aligned vectors.)
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace slj {
namespace {

using core::ClipEngine;
using core::ClipEngineConfig;
using core::ClipObservation;
using core::FrameObservation;
using core::FramePipeline;

// A small but real corpus: full-pipeline parity on every frame of every clip.
std::vector<synth::Clip> parity_clips() {
  std::vector<synth::Clip> clips;
  const std::pair<std::uint32_t, int> specs[] = {{3u, 18}, {17u, 14}, {2008u, 16}};
  for (const auto& [seed, frames] : specs) {
    synth::ClipSpec spec;
    spec.seed = seed;
    spec.frame_count = frames;
    clips.push_back(synth::generate_clip(spec));
  }
  return clips;
}

void expect_identical_observation(const FrameObservation& got, const FrameObservation& want,
                                  std::size_t frame) {
  EXPECT_EQ(got.silhouette, want.silhouette) << "frame " << frame;
  EXPECT_EQ(got.raw_skeleton, want.raw_skeleton) << "frame " << frame;
  EXPECT_EQ(got.bottom_row, want.bottom_row) << "frame " << frame;
  ASSERT_EQ(got.key_points.size(), want.key_points.size()) << "frame " << frame;
  for (std::size_t k = 0; k < got.key_points.size(); ++k) {
    EXPECT_EQ(got.key_points[k].pos, want.key_points[k].pos) << "frame " << frame << " kp " << k;
  }
  ASSERT_EQ(got.candidates.size(), want.candidates.size()) << "frame " << frame;
  for (std::size_t c = 0; c < got.candidates.size(); ++c) {
    EXPECT_EQ(got.candidates[c].nodes, want.candidates[c].nodes)
        << "frame " << frame << " cand " << c;
    EXPECT_TRUE(got.candidates[c].features == want.candidates[c].features)
        << "frame " << frame << " cand " << c;
  }
}

BinaryImage random_blobs(std::uint32_t seed, int w, int h, int discs) {
  std::mt19937 rng(seed);
  BinaryImage img(w, h, 0);
  std::uniform_int_distribution<int> cx(2, w - 3), cy(2, h - 3), r(2, 9);
  for (int i = 0; i < discs; ++i) {
    fill_disc(img, {static_cast<double>(cx(rng)), static_cast<double>(cy(rng))},
              static_cast<double>(r(rng)));
  }
  return img;
}

// ---- kernel-level parity ---------------------------------------------------

TEST(FrameWorkspaceParity, IntoVariantsMatchReference) {
  FrameWorkspace ws;
  for (const std::uint32_t seed : {1u, 7u, 42u}) {
    const BinaryImage mask = random_blobs(seed, 70, 50, 6);

    BinaryImage median_out;
    for (const int k : {1, 3, 5, 127}) {
      median_filter_binary_into(mask, k, ws.median_colsum, median_out);
      EXPECT_EQ(median_out, reference::median_filter_binary(mask, k))
          << "seed " << seed << " k " << k;
    }

    // The reused workspace scratch must give what fresh scratch gives.
    FrameWorkspace fresh;
    BinaryImage got, want;
    largest_component_into(mask, true, ws.labeling, ws.pixel_stack, got);
    largest_component_into(mask, true, fresh.labeling, fresh.pixel_stack, want);
    EXPECT_EQ(got, want) << "seed " << seed;

    fill_holes_into(mask, ws.reached, ws.flood_stack, got);
    fill_holes_into(mask, fresh.reached, fresh.flood_stack, want);
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(FrameWorkspaceParity, BitParallelThinningMatchesReferenceAcrossSeeds) {
  FrameWorkspace ws;  // deliberately reused across shapes and sizes
  BinaryImage out;
  for (const std::uint32_t seed : {1u, 7u, 13u, 42u, 99u, 123u, 2024u, 31337u}) {
    const BinaryImage img = random_blobs(seed, 64 + static_cast<int>(seed % 17), 48, 7);
    thin::ThinningStats want_stats;
    const BinaryImage want = reference::zhang_suen_thin(img, &want_stats);
    thin::ThinningStats got_stats;
    thin::zhang_suen_thin_into(img, ws, out, &got_stats);
    EXPECT_EQ(out, want) << "seed " << seed;
    EXPECT_EQ(got_stats.iterations, want_stats.iterations) << "seed " << seed;
    EXPECT_EQ(got_stats.removed, want_stats.removed) << "seed " << seed;
  }
}

TEST(FrameWorkspaceParity, ThinningHandlesDegenerateImages) {
  FrameWorkspace ws;
  BinaryImage out;
  // Empty, full, single-pixel, single-row, single-column images.
  for (const BinaryImage& img :
       {BinaryImage(0, 0), BinaryImage(12, 9, 0), BinaryImage(12, 9, 1), BinaryImage(1, 1, 1),
        BinaryImage(20, 1, 1), BinaryImage(1, 20, 1)}) {
    thin::zhang_suen_thin_into(img, ws, out);
    EXPECT_EQ(out, reference::zhang_suen_thin(img));
  }
}

TEST(FrameWorkspaceParity, ExtractIntoMatchesExtract) {
  const synth::Clip clip = parity_clips().front();
  seg::ObjectExtractor extractor;
  extractor.set_background(clip.background);
  FrameWorkspace ws;
  BinaryImage silhouette;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    const reference::ExtractionResult want =
        reference::extract(clip.background, clip.frames[i]);
    const double max_d = extractor.extract_into(clip.frames[i], ws, silhouette);
    EXPECT_EQ(silhouette, want.silhouette) << "frame " << i;
    EXPECT_EQ(ws.smoothed, want.smoothed) << "frame " << i;
    EXPECT_EQ(ws.raw_mask, want.raw_mask) << "frame " << i;
    EXPECT_EQ(reference::scaled_difference_mismatches(ws.difference36, want.difference), 0u)
        << "frame " << i;
    EXPECT_EQ(max_d, want.max_difference) << "frame " << i;
  }
}

TEST(FrameWorkspaceParity, WorkspaceSurvivesFrameSizeChanges) {
  // One workspace fed frames of different sizes must stay correct (buffers
  // are resized by each call, shrinking and growing).
  FrameWorkspace ws;
  BinaryImage out;
  const std::pair<int, int> sizes[] = {{80, 60}, {24, 18}, {120, 90}, {24, 90}};
  for (const auto& [w, h] : sizes) {
    const BinaryImage img = random_blobs(static_cast<std::uint32_t>(w * h), w, h, 5);
    thin::zhang_suen_thin_into(img, ws, out);
    EXPECT_EQ(out, reference::zhang_suen_thin(img)) << w << "x" << h;
  }
}

// ---- pipeline- and engine-level parity -------------------------------------

TEST(FrameWorkspaceParity, PipelineWorkspaceOverloadMatchesSeedPath) {
  const synth::Clip clip = parity_clips()[1];
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  FrameWorkspace ws;
  FrameObservation got;
  for (std::size_t i = 0; i < clip.frames.size(); ++i) {
    pipeline.process_into(clip.frames[i], ws, got);
    expect_identical_observation(
        got, reference::process(pipeline, clip.background, clip.frames[i]), i);
  }
}

TEST(FrameWorkspaceParity, GroundTruthSilhouetteMatchesReference) {
  // The ground-truth-silhouette entry point, on one workspace reused across
  // a paper-corpus clip and then a clip of another frame size.
  synth::DatasetSpec paper;
  paper.train_clip_frames = {};
  paper.test_clip_frames = {45};
  synth::DatasetSpec small = paper;
  small.camera.width = 96;
  small.camera.height = 64;
  small.camera.pixels_per_meter = 24.0;
  small.camera.ground_y_px = 60.0;
  const FramePipeline pipeline;
  FrameWorkspace ws;
  FrameObservation got;
  for (const synth::DatasetSpec& spec : {paper, small}) {
    const std::vector<BinaryImage> masks =
        synth::render_clean_silhouettes(synth::dataset_clip_specs(spec).test.front());
    for (std::size_t i = 0; i < masks.size(); ++i) {
      pipeline.process_silhouette_into(masks[i], ws, got);
      const FrameObservation want = reference::process_silhouette(pipeline, masks[i]);
      expect_identical_observation(got, want, i);
    }
  }
}

TEST(FrameWorkspaceParity, ClipEngineMatchesSeedReferenceAtEveryWorkerCount) {
  const std::vector<synth::Clip> clips = parity_clips();
  std::vector<ClipObservation> references;
  references.reserve(clips.size());
  for (const synth::Clip& clip : clips) {
    references.push_back(reference::process_clip(FramePipeline(), clip));
  }

  for (const unsigned workers : {1u, 4u, 16u}) {
    ClipEngineConfig config;
    config.workers = workers;
    ClipEngine engine({}, config);
    for (std::size_t c = 0; c < clips.size(); ++c) {
      const ClipObservation got = engine.process(clips[c]);
      const ClipObservation& want = references[c];
      ASSERT_EQ(got.frame_count(), want.frame_count()) << "workers " << workers;
      EXPECT_EQ(got.airborne, want.airborne) << "workers " << workers << " clip " << c;
      EXPECT_EQ(got.ground_row, want.ground_row) << "workers " << workers << " clip " << c;
      for (std::size_t i = 0; i < got.frames.size(); ++i) {
        expect_identical_observation(got.frames[i], want.frames[i], i);
      }
    }
  }
}

TEST(FrameWorkspaceParity, StreamEngineMatchesSeedReference) {
  const pose::PoseDbnClassifier classifier;
  const std::vector<synth::Clip> clips = parity_clips();
  core::StreamManager manager(classifier);
  std::vector<int> ids;
  for (const synth::Clip& clip : clips) ids.push_back(manager.open_session(clip.background));
  for (std::size_t c = 0; c < clips.size(); ++c) {
    const ClipObservation want = reference::process_clip(FramePipeline(), clips[c]);
    for (std::size_t i = 0; i < clips[c].frames.size(); ++i) {
      const core::StreamUpdate update = manager.push_frame(ids[c], clips[c].frames[i]);
      EXPECT_EQ(update.airborne, want.airborne[i]) << "clip " << c << " frame " << i;
    }
  }
}

// ---- allocation behaviour --------------------------------------------------

TEST(FrameWorkspaceAllocation, SteadyStateSegmentAndThinHotPathIsAllocationFree) {
  const synth::Clip clip = parity_clips().front();
  seg::ObjectExtractor extractor;
  extractor.set_background(clip.background);
  FrameWorkspace ws;
  BinaryImage silhouette;
  BinaryImage skeleton;
  // Two warm-up rounds size every buffer to its high-water mark.
  for (int round = 0; round < 2; ++round) {
    for (const RgbImage& frame : clip.frames) {
      extractor.extract_into(frame, ws, silhouette);
      thin::zhang_suen_thin_into(silhouette, ws, skeleton);
    }
  }
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  for (const RgbImage& frame : clip.frames) {
    extractor.extract_into(frame, ws, silhouette);
    thin::zhang_suen_thin_into(silhouette, ws, skeleton);
  }
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "segment+thin steady state must not allocate";

  // Frames taller than the 257 saturated rows a 16-bit column sum holds
  // stay allocation-free too: the window's column sums cover three rows.
  const RgbImage tall_background(40, 320, {12, 12, 15});
  std::vector<RgbImage> tall_frames;
  for (int i = 0; i < 4; ++i) {
    RgbImage frame = tall_background;
    BinaryImage disc(frame.width(), frame.height(), 0);
    fill_disc(disc, {20.0, 60.0 + 60.0 * i}, 12.0);
    for (std::size_t p = 0; p < frame.size(); ++p) {
      if (disc.data()[p]) frame.data()[p] = {180, 150, 120};
    }
    tall_frames.push_back(std::move(frame));
  }
  seg::ObjectExtractor tall_extractor;
  tall_extractor.set_background(tall_background);
  for (int round = 0; round < 2; ++round) {
    for (const RgbImage& frame : tall_frames) {
      tall_extractor.extract_into(frame, ws, silhouette);
      thin::zhang_suen_thin_into(silhouette, ws, skeleton);
    }
  }
  const std::size_t tall_before = g_allocations.load(std::memory_order_relaxed);
  for (const RgbImage& frame : tall_frames) {
    tall_extractor.extract_into(frame, ws, silhouette);
    thin::zhang_suen_thin_into(silhouette, ws, skeleton);
  }
  const std::size_t tall_after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_GT(count_foreground(silhouette), 0u);
  EXPECT_EQ(tall_after - tall_before, 0u) << "320-row frames must not allocate either";

  // The hole fill floods only the foreground's box, yet sizes its scratch
  // for the whole frame on the first frame: boxes that grow frame after
  // frame, up to the full frame, never reallocate.
  const int w = clip.background.width();
  const int h = clip.background.height();
  std::vector<BinaryImage> growing;
  for (int step = 1; step <= 8; ++step) {
    BinaryImage mask(w, h, 0);
    const int bw = w * step / 8;
    const int bh = h * step / 8;
    const int x0 = (w - bw) / 2;
    const int y0 = (h - bh) / 2;
    for (int y = y0; y < y0 + bh; ++y) {
      for (int x = x0; x < x0 + bw; ++x) {
        // A hollow box with a diagonal stripe: holes and open concavities.
        const bool edge = x == x0 || y == y0 || x == x0 + bw - 1 || y == y0 + bh - 1;
        mask.at(x, y) = edge || (x - x0) == (y - y0) ? 1 : 0;
      }
    }
    growing.push_back(std::move(mask));
  }
  FrameWorkspace fill_ws;
  BinaryImage filled;
  fill_holes_into(growing.front(), fill_ws.reached, fill_ws.flood_stack, filled);
  const std::size_t fill_before = g_allocations.load(std::memory_order_relaxed);
  for (const BinaryImage& mask : growing) {
    fill_holes_into(mask, fill_ws.reached, fill_ws.flood_stack, filled);
  }
  const std::size_t fill_after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(fill_after - fill_before, 0u) << "a growing hole-fill box must not allocate";
  EXPECT_EQ(filled, reference::fill_holes(growing.back()));

  // The thinning's packed rows are sized for a whole-frame box on the first
  // frame too, as are the median's column counts: the same growing boxes
  // reallocate neither.
  FrameWorkspace box_ws;
  BinaryImage thinned;
  BinaryImage smoothed;
  thin::zhang_suen_thin_into(growing.front(), box_ws, thinned);
  median_filter_binary_into(growing.front(), seg::ObjectExtractor::kMedianWindow,
                            box_ws.median_colsum, smoothed);
  const std::size_t box_before = g_allocations.load(std::memory_order_relaxed);
  for (const BinaryImage& mask : growing) {
    thin::zhang_suen_thin_into(mask, box_ws, thinned);
    median_filter_binary_into(mask, seg::ObjectExtractor::kMedianWindow, box_ws.median_colsum,
                              smoothed);
  }
  const std::size_t box_after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(box_after - box_before, 0u) << "growing thinning and median boxes must not allocate";
  EXPECT_EQ(thinned, reference::zhang_suen_thin(growing.back()));
  EXPECT_EQ(smoothed,
            reference::median_filter_binary(growing.back(), seg::ObjectExtractor::kMedianWindow));
}

/// Heap allocations push_back makes growing an empty vector to n elements
/// by doubling: capacities 1, 2, 4, ..., the first one >= n.
std::size_t doubling_allocations(std::size_t n) {
  return n == 0 ? 0 : static_cast<std::size_t>(std::bit_width(n - 1)) + 1;
}

TEST(FrameWorkspaceAllocation, SteadyStateCleanSkeletonAllocatesOnlyTheGraph) {
  // The graph build keeps its pixel maps, step marks and trace in the
  // workspace, so at steady state clean_skeleton allocates only for the
  // graph it returns. The bound counts, from that graph:
  //  - each node's cluster, grown pixel by pixel;
  //  - each edge's path, copied once at its exact size;
  //  - each merge of a pruned anchor: its incident-edge list (two growths)
  //    and the two oriented path copies (the spliced path is an edge's);
  //  - the doubling growth of the node and edge lists, the loop cut's
  //    Kruskal order and each prune round's candidate list;
  //  - the loop cut's two cycle counts and its union-find table.
  // A per-pixel allocation anywhere in the build (a hash map of node pixels,
  // a set of traced steps, a neighbour vector per traced pixel) breaks it.
  const synth::Clip clip = parity_clips().front();
  FramePipeline pipeline;
  pipeline.set_background(clip.background);
  FrameWorkspace ws;
  std::vector<BinaryImage> skeletons;
  for (const RgbImage& frame : clip.frames) {
    FrameObservation obs;
    pipeline.process_into(frame, ws, obs);
    skeletons.push_back(obs.raw_skeleton);
  }
  for (const BinaryImage& skeleton : skeletons) skel::clean_skeleton(skeleton, ws);  // warm-up
  for (std::size_t i = 0; i < skeletons.size(); ++i) {
    const std::size_t before = g_allocations.load(std::memory_order_relaxed);
    skel::CleanupStats stats;
    const skel::SkeletonGraph graph = skel::clean_skeleton(skeletons[i], ws, 10, &stats);
    const std::size_t used = g_allocations.load(std::memory_order_relaxed) - before;

    const std::size_t nodes = graph.nodes().size();
    const std::size_t edges = graph.edges().size();
    const std::size_t merges = edges - skel::build_skeleton_graph(skeletons[i], ws).edges().size();
    std::size_t bound = edges + 4 * merges + 3 + doubling_allocations(nodes) +
                        (2 + stats.prune.rounds) * doubling_allocations(edges);
    for (const skel::Node& n : graph.nodes()) bound += doubling_allocations(n.cluster.size());
    EXPECT_LE(used, bound) << "frame " << i << ": " << nodes << " nodes, " << edges
                           << " edges, " << merges << " merges";
  }
}

}  // namespace
}  // namespace slj
