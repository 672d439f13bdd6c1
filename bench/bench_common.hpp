// Shared helpers for the reproduction benches: the paper-sized corpus, build
// provenance, and small table-printing utilities.
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "core/clip_engine.hpp"
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
/// bench sees the same data. Equal to synth::generate_dataset, with the
/// clips rendered concurrently, one per task.
inline synth::Dataset paper_corpus(std::uint32_t seed = 2008) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  const synth::DatasetClipSpecs specs = synth::dataset_clip_specs(spec);
  synth::Dataset dataset;
  dataset.train.resize(specs.train.size());
  dataset.test.resize(specs.test.size());
  core::WorkerPool pool;
  pool.parallel_for(specs.train.size() + specs.test.size(), [&](std::size_t i) {
    if (i < specs.train.size()) {
      dataset.train[i] = synth::generate_clip(specs.train[i]);
    } else {
      const std::size_t t = i - specs.train.size();
      dataset.test[t] = synth::generate_clip(specs.test[t]);
    }
  });
  return dataset;
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

}  // namespace slj::bench
