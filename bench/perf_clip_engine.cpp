// P3 — ClipEngine throughput: frames/sec of the full vision pass (extract →
// thin → graph cleanup → features) for a serial process_into loop through
// one FrameWorkspace vs the ClipEngine worker pool at increasing worker
// counts, on the paper corpus's 3 test clips, plus the tracker-enabled
// batch mode. Speedups are stated against the serial workspace loop.
//
// With --json FILE, the measurements are also written as a JSON document
// (consumed by scripts/bench.sh to assemble BENCH_*.json), including build
// provenance (git SHA, compiler, flags, SIMD backend) and explicit skip
// markers for rows a single-core host cannot measure meaningfully.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/clip_engine.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::size_t total_frames(const std::vector<slj::synth::Clip>& clips) {
  std::size_t n = 0;
  for (const auto& clip : clips) n += clip.frames.size();
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slj;
  const char* json_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) json_path = argv[i + 1];
  }

  bench::print_header("P3  ClipEngine throughput vs a serial workspace loop",
                      "system sketch Sec. 1: batch clip processing at production scale");

  const synth::Dataset dataset = bench::paper_corpus();
  const std::vector<synth::Clip>& clips = dataset.test;
  const std::size_t frames = total_frames(clips);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::printf("corpus: %zu clips, %zu frames; hardware concurrency: %u\n\n", clips.size(),
              frames, hw);

  // Baseline: a serial loop through one FrameWorkspace.
  double workspace_ms = 0.0;
  {
    FrameWorkspace ws;
    core::FrameObservation obs;
    const auto start = Clock::now();
    for (const synth::Clip& clip : clips) {
      core::FramePipeline pipeline;
      pipeline.set_background(clip.background);
      core::GroundMonitor ground;
      for (const RgbImage& frame : clip.frames) {
        pipeline.process_into(frame, ws, obs);
        ground.airborne(obs.bottom_row);
      }
    }
    workspace_ms = ms_since(start);
    std::printf("serial + FrameWorkspace        %8.1f ms   %7.1f frames/s\n", workspace_ms,
                1000.0 * frames / workspace_ms);
  }
  bench::print_rule();

  // Multi-worker rows are only meaningful with real cores behind them; on a
  // single-core host they would measure oversubscription noise, so they are
  // recorded as explicitly skipped instead of silently omitted (or worse,
  // silently bogus).
  std::vector<unsigned> worker_counts = {1, 2, 4};
  if (hw > 4) worker_counts.push_back(hw);
  std::vector<std::pair<unsigned, double>> engine_ms;  // ms < 0: skipped
  for (const unsigned workers : worker_counts) {
    if (workers > 1 && hw == 1) {
      engine_ms.emplace_back(workers, -1.0);
      std::printf("ClipEngine batch, %2u workers    skipped (hardware_concurrency == 1)\n",
                  workers);
      continue;
    }
    core::ClipEngineConfig config;
    config.workers = workers;
    core::ClipEngine engine({}, config);
    // Untimed warm-up: sizes the lane workspaces and warms the caches, so a
    // row's time does not depend on where it runs in the sequence.
    (void)engine.process(clips);
    const auto start = Clock::now();
    const std::vector<core::ClipObservation> results = engine.process(clips);
    const double ms = ms_since(start);
    engine_ms.emplace_back(workers, ms);
    std::printf("ClipEngine batch, %2u workers   %8.1f ms   %7.1f frames/s   speedup %.2fx\n",
                workers, ms, 1000.0 * frames / ms, workspace_ms / ms);
    (void)results;
  }
  bench::print_rule();

  // Tracker mode: clip-level parallelism only (tracking is sequential).
  double tracker_ms = 0.0;
  {
    core::ClipEngineConfig config;
    config.workers = hw;
    config.use_tracker = true;
    core::ClipEngine engine({}, config);
    const auto start = Clock::now();
    const std::vector<core::ClipObservation> results = engine.process(clips);
    tracker_ms = ms_since(start);
    std::printf("ClipEngine + tracker, %2u wkrs  %8.1f ms   %7.1f frames/s\n", hw, tracker_ms,
                1000.0 * frames / tracker_ms);
    (void)results;
  }

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path);
      return 1;
    }
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"host\": %s,\n", bench::host_json().c_str());
    std::fprintf(f, "  \"clips\": %zu,\n  \"frames\": %zu,\n  \"hardware_concurrency\": %u,\n",
                 clips.size(), frames, hw);
    std::fprintf(f, "  \"serial_workspace\": {\"ms\": %.3f, \"frames_per_s\": %.1f},\n",
                 workspace_ms, 1000.0 * frames / workspace_ms);
    std::fprintf(f, "  \"engine\": [\n");
    for (std::size_t i = 0; i < engine_ms.size(); ++i) {
      const auto [workers, ms] = engine_ms[i];
      const char* sep = i + 1 < engine_ms.size() ? "," : "";
      if (ms < 0.0) {
        std::fprintf(f,
                     "    {\"workers\": %u, \"skipped\": true, "
                     "\"reason\": \"hardware_concurrency == 1\"}%s\n",
                     workers, sep);
      } else {
        std::fprintf(f,
                     "    {\"workers\": %u, \"ms\": %.3f, \"frames_per_s\": %.1f, "
                     "\"speedup_vs_serial_workspace\": %.3f}%s\n",
                     workers, ms, 1000.0 * frames / ms, workspace_ms / ms, sep);
      }
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"engine_tracker\": {\"workers\": %u, \"ms\": %.3f, \"frames_per_s\": %.1f}\n",
                 hw, tracker_ms, 1000.0 * frames / tracker_ms);
    std::fprintf(f, "}\n");
    std::fclose(f);
  }
  return 0;
}
