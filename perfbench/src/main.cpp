// slj_perfbench: one benchmark for the jump pipeline.
//
//   slj_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Workloads: batch_clips, live_60fps, live_60fps_recorded.
// --trace 0 measures the workload's end-to-end metrics; --trace 1 runs the
// separate traced pass that times each layer from outside. Every metric is
// printed as a "metric <name> <value> <unit>" line; the last line of
// standard output is the JSON result. perfbench/METRICS.md is the catalogue.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#ifdef __GLIBC__  // defined by the C library headers above
#include <malloc.h>
#endif

#include "bench_common.hpp"
#include "harness.hpp"

namespace {

using slj::perfbench::Options;

/// End-to-end metrics every workload reports (BENCHMARK.json end_to_end).
const std::vector<std::string> kEndToEnd = {
    "setup_s", "frames_per_s", "pose_accuracy", "peak_rss_mb",
};

/// Per-layer metrics of the traced run (BENCHMARK.json per_layer).
const std::vector<std::string> kPerLayer = {
    "segmentation.extract_us_p50",  "segmentation.extract_us_p99",
    "thinning.thin_us_p50",         "thinning.passes_per_frame",
    "skelgraph.clean_us_p50",       "skelgraph.loops_cut_per_frame",
    "skelgraph.branches_pruned_per_frame",
    "pose.features_us_p50",         "pose.candidates_per_frame",
    "pose.classify_us_p50",         "pose.filter_us_p50",
    "pose.viterbi_us_per_frame",    "core.single_lane_frames_per_s",
    "core.parallel_efficiency",     "core.tick_ms_p50",
    "core.tick_ms_p99",             "ingest.push_us_p50",
    "ingest.push_us_p99",           "ingest.frames_per_tick",
    "ingest.queue_depth_peak",      "ingest.dropped_oldest_pct",
    "ingest.hist_p99_over_exact",   "obs.recorder_bytes_per_frame",
    "obs.dump_ms",                  "obs.poll_us_p50",
    "replay.replay_us_per_frame",   "load.generator_lag_ms_p99",
    "trace.overhead_pct",
};

int usage() {
  std::fprintf(stderr,
               "usage: slj_perfbench --workload <batch_clips|live_60fps|live_60fps_recorded> "
               "--seed <n> --seconds <s> --trace <0|1> [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // One malloc arena, set before any thread starts: peak_rss_mb then
  // measures what the program holds rather than how its frees happened to
  // spread over per-thread arenas, which moved the live peak by ~10% from
  // run to run.
  mallopt(M_ARENA_MAX, 1);
#endif
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      opt.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = static_cast<std::uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (arg == "--trace") {
      opt.trace = std::strcmp(value, "1") == 0;
    } else {
      return usage();
    }
  }
  const bool live = opt.workload == "live_60fps" || opt.workload == "live_60fps_recorded";
  if ((!live && opt.workload != "batch_clips") || !(opt.seconds > 0)) return usage();

  std::printf("provenance %s\n", slj::bench::host_json().c_str());
  std::printf("workload %s seed %u seconds %.3g trace %d%s\n", opt.workload.c_str(), opt.seed,
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? " (smoke)" : "");
  std::fflush(stdout);

  slj::perfbench::Report report;
  try {
    if (opt.trace) {
      slj::perfbench::run_layers(opt, report);
    } else if (live) {
      slj::perfbench::run_live(opt, report);
    } else {
      slj::perfbench::run_batch(opt, report);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  std::fflush(stdout);
  return report.print_result(opt.trace ? kPerLayer : kEndToEnd) ? 0 : 1;
}
