// P6 — tracer overhead guards: frames/sec of the serial FramePipeline
// workspace loop with the always-compiled event tracer disabled vs enabled.
//
// The loop carries one obs::TraceSpan per pipeline stage (vision, extract,
// thin, skelgraph, features). Two guards bind in every build:
//
//   * idle (< 3%): a disabled span costs a single relaxed load. That cost is
//     microbenchmarked directly, scaled by the spans one frame carries
//     (events / frames of an enabled pass), and expressed as a percentage of
//     the measured per-frame time.
//   * enabled (< 5%): the end-to-end slowdown of the loop with the tracer
//     recording. Disabled and enabled passes alternate so host drift lands
//     on both sides; each side keeps its best pass.
//
// Takes no arguments and exits 1 when a guard trips, so CI can fail the
// build.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/pipeline.hpp"
#include "obs/tracer.hpp"

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kMaxIdleOverheadPct = 3.0;
constexpr double kMaxEnabledOverheadPct = 5.0;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// One full pass over the corpus through the allocation-free workspace path
/// (the hot loop the stage spans instrument), returning elapsed milliseconds.
double run_pass(const std::vector<slj::synth::Clip>& clips) {
  slj::FrameWorkspace ws;
  slj::core::FrameObservation obs;
  const auto start = Clock::now();
  for (const slj::synth::Clip& clip : clips) {
    slj::core::FramePipeline pipeline;
    pipeline.set_background(clip.background);
    for (const slj::RgbImage& frame : clip.frames) {
      pipeline.process_into(frame, ws, obs);
    }
  }
  return ms_since(start);
}

/// Nanoseconds one disabled (idle) TraceSpan costs: the relaxed enabled
/// check is the only work, measured over a tight loop the optimizer cannot
/// drop because the atomic load is an observable access.
double idle_span_ns() {
  constexpr int kSpans = 2'000'000;
  const auto start = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    slj::obs::TraceSpan span("bench.idle");
  }
  const double total_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - start).count();
  return total_ns / kSpans;
}

}  // namespace

int main() {
  using namespace slj;

  bench::print_header("P6  event tracer overhead",
                      "instrumentation must not tax the hot path, idle or recording");

  const synth::Dataset dataset = bench::paper_corpus();
  const std::vector<synth::Clip>& clips = dataset.test;
  std::size_t frames = 0;
  for (const auto& clip : clips) frames += clip.frames.size();

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  run_pass(clips);  // warm-up: caches, page faults, branch predictors

  // Alternate disabled/enabled passes; each side keeps its minimum, the
  // least noise-contaminated estimate of its true cost. Every enabled pass
  // starts from a reset, so its snapshot counts exactly one pass's events.
  constexpr int kReps = 7;
  double off_ms = 0.0;
  double on_ms = 0.0;
  obs::TracerSnapshot pass_snap;
  for (int rep = 0; rep < kReps; ++rep) {
    const double off = run_pass(clips);
    tracer.reset();
    tracer.set_enabled(true);
    const double on = run_pass(clips);
    tracer.set_enabled(false);
    pass_snap = tracer.snapshot();
    off_ms = rep == 0 ? off : std::min(off_ms, off);
    on_ms = rep == 0 ? on : std::min(on_ms, on);
  }
  tracer.reset();
  const std::uint64_t pass_events = pass_snap.total_events + pass_snap.total_dropped;
  if (pass_events == 0) {
    std::fprintf(stderr, "error: tracer enabled but recorded no events\n");
    return 1;
  }

  const double overhead_pct = 100.0 * (on_ms - off_ms) / off_ms;
  std::printf("tracer disabled     %8.1f ms   %7.1f frames/s\n", off_ms,
              1000.0 * frames / off_ms);
  std::printf("tracer enabled      %8.1f ms   %7.1f frames/s\n", on_ms,
              1000.0 * frames / on_ms);
  std::printf("enabled overhead    %+8.2f %%   (guard: < %.1f %%)\n", overhead_pct,
              kMaxEnabledOverheadPct);
  std::printf("events per pass     %8llu     (%llu dropped)\n",
              static_cast<unsigned long long>(pass_events),
              static_cast<unsigned long long>(pass_snap.total_dropped));

  const double spans_per_frame =
      static_cast<double>(pass_events) / static_cast<double>(frames);
  const double span_ns = idle_span_ns();
  const double frame_ns = off_ms * 1e6 / static_cast<double>(frames);
  const double tracer_idle_pct = 100.0 * span_ns * spans_per_frame / frame_ns;
  std::printf("idle span           %8.2f ns   x %.1f spans/frame -> %.4f %% of a %.0f ns "
              "frame (guard: < %.1f %%)\n",
              span_ns, spans_per_frame, tracer_idle_pct, frame_ns, kMaxIdleOverheadPct);

  if (overhead_pct > kMaxEnabledOverheadPct) {
    std::fprintf(stderr, "error: enabled tracer overhead %.2f%% exceeds guard of %.1f%%\n",
                 overhead_pct, kMaxEnabledOverheadPct);
    return 1;
  }
  if (tracer_idle_pct > kMaxIdleOverheadPct) {
    std::fprintf(stderr, "error: idle tracer overhead %.4f%% exceeds guard of %.1f%%\n",
                 tracer_idle_pct, kMaxIdleOverheadPct);
    return 1;
  }
  return 0;
}
