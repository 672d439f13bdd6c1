// Shared helpers for the reproduction benches: the paper-sized corpus, a
// trained classifier, and small table-printing utilities.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/evaluation.hpp"
#include "core/simd.hpp"
#include "core/trainer.hpp"
#include "synth/dataset.hpp"

namespace slj::bench {

/// Build + host provenance for perfbench's `provenance` line: two
/// measurements are only comparable if the commit, compiler, flag set, SIMD
/// backend, and core count behind them are known. The git SHA comes from the
/// environment (perfbench/run.py exports SLJ_GIT_SHA) so the binary needs no
/// VCS awareness; SLJ_BUILD_FLAGS is baked in by CMake.
inline std::string host_json() {
#ifndef SLJ_BUILD_FLAGS
#define SLJ_BUILD_FLAGS "unknown"
#endif
#ifdef __VERSION__
  const char* compiler = __VERSION__;
#else
  const char* compiler = "unknown";
#endif
  const char* sha = std::getenv("SLJ_GIT_SHA");
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"git_sha\": \"%s\",\n"
                "  \"compiler\": \"%s\",\n"
                "  \"build_flags\": \"%s\",\n"
                "  \"simd\": {\"backend\": \"%s\", \"u8_lanes\": %d},\n"
                "  \"hardware_concurrency\": %u\n"
                "}",
                sha != nullptr ? sha : "unknown", compiler, SLJ_BUILD_FLAGS,
                simd::backend_name(), simd::u8_lanes(),
                std::max(1u, std::thread::hardware_concurrency()));
  return buf;
}

/// The reference corpus: 12 training clips (522 frames), 3 test clips
/// (135 frames), matching the paper's Sec. 5 counts. Seed fixed so every
/// bench sees the same data.
inline synth::Dataset paper_corpus(std::uint32_t seed = 2008) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  return synth::generate_dataset(spec);
}

struct TrainedSystem {
  core::FramePipeline pipeline;
  pose::PoseDbnClassifier classifier;
  core::TrainingStats stats;
};

inline TrainedSystem train_system(const synth::Dataset& dataset,
                                  pose::ClassifierConfig classifier_config = {},
                                  core::PipelineParams pipeline_params = {}) {
  TrainedSystem sys{core::FramePipeline(pipeline_params),
                    pose::PoseDbnClassifier(classifier_config),
                    {}};
  sys.stats = core::train_on_dataset(sys.classifier, sys.pipeline, dataset);
  return sys;
}

inline void print_header(const std::string& experiment, const std::string& paper_ref) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper reference: %s\n", paper_ref.c_str());
  std::printf("==================================================================\n");
}

inline void print_rule() {
  std::printf("------------------------------------------------------------------\n");
}

/// Paired accuracy delta of `frames` more correct test frames out of
/// `total_frames`, judged at the test set's resolution of one frame: "+0.0
/// pt, within one test frame" or "-3.0 pt (-4 test frames)". `sign` is set
/// to +1 / -1 past one frame and to 0 within it.
inline std::string accuracy_delta(long frames, std::size_t total_frames, int& sign) {
  const double points = 100.0 * static_cast<double>(frames) / static_cast<double>(total_frames);
  sign = frames > 1 ? 1 : (frames < -1 ? -1 : 0);
  char buf[64];
  if (sign == 0) {
    std::snprintf(buf, sizeof(buf), "%+.1f pt, within one test frame", points);
  } else {
    std::snprintf(buf, sizeof(buf), "%+.1f pt (%+ld test frames)", points, frames);
  }
  return buf;
}

/// The same, from two evaluations of the same test frames.
inline std::string accuracy_delta(const core::DatasetEvaluation& eval,
                                  const core::DatasetEvaluation& baseline, int& sign) {
  return accuracy_delta(
      static_cast<long>(eval.total_correct()) - static_cast<long>(baseline.total_correct()),
      eval.total_frames(), sign);
}

}  // namespace slj::bench
