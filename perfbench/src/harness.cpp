#include "harness.hpp"

#include <sys/resource.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <thread>

#include "core/clip_engine.hpp"
#include "core/pipeline.hpp"
#include "core/stream_engine.hpp"
#include "core/trainer.hpp"

namespace slj::perfbench {

unsigned thread_budget() { return std::max(1u, std::thread::hardware_concurrency()); }

namespace {

/// Renders clips concurrently on `pool`; output order follows `specs`.
std::vector<synth::Clip> render(core::WorkerPool& pool, const std::vector<synth::ClipSpec>& specs) {
  std::vector<synth::Clip> clips(specs.size());
  pool.parallel_for(specs.size(),
                    [&](std::size_t i) { clips[i] = synth::generate_clip(specs[i]); });
  return clips;
}

/// The clip specs synth::generate_dataset derives from a DatasetSpec.
std::vector<synth::ClipSpec> clip_specs(std::uint32_t base_seed, const std::vector<int>& frames) {
  std::vector<synth::ClipSpec> specs(frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    specs[i].seed = base_seed + 1u + static_cast<std::uint32_t>(i);
    specs[i].frame_count = frames[i];
  }
  return specs;
}

}  // namespace

Corpus build_corpus(std::uint32_t seed, std::size_t clip_count) {
  Corpus corpus;
  core::WorkerPool pool(thread_budget());  // the caller is one of the lanes
  const Clock::time_point t0 = Clock::now();

  // The model: the paper's 12-clip training set (generate_dataset's default
  // spec, seed 2008), so the benchmark seed changes the scored inputs, not
  // the classifier.
  const synth::DatasetSpec paper;
  synth::Dataset training;
  training.train = render(pool, clip_specs(paper.seed, paper.train_clip_frames));
  const double generated_train = seconds_since(t0);
  core::FramePipeline trainer_pipeline;
  core::train_on_dataset(corpus.classifier, trainer_pipeline, training);
  const double trained = seconds_since(t0);

  // The inputs: clip seeds start far above the training seeds, so no test
  // clip can repeat a training clip.
  corpus.clips = render(pool, clip_specs(100000u + seed * 1000u,
                                         std::vector<int>(clip_count, kClipFrames)));
  const double generated_test = seconds_since(t0);

  corpus.reference.resize(clip_count);
  pool.parallel_for(clip_count, [&](std::size_t c) {
    const synth::Clip& clip = corpus.clips[c];
    core::StreamSession session(corpus.classifier, clip.background);
    ClipReference& ref = corpus.reference[c];
    ref.frames.reserve(clip.frames.size());
    for (const RgbImage& frame : clip.frames) {
      ref.frames.push_back(session.push_frame(frame).result);
    }
    ref.report = session.finish();
  });
  std::printf("setup: train-gen %.3f s, train %.3f s, corpus-gen %.3f s, reference %.3f s\n",
              generated_train, trained - generated_train, generated_test - trained,
              seconds_since(t0) - generated_test);
  return corpus;
}

bool same_result(const pose::FrameResult& a, const pose::FrameResult& b) {
  return a.pose == b.pose && a.best_pose == b.best_pose && a.posterior == b.posterior &&
         a.stage == b.stage && a.candidate_index == b.candidate_index;
}

bool same_report(const core::JumpReport& a, const core::JumpReport& b) {
  if (a.findings.size() != b.findings.size()) return false;
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    const core::FaultFinding& x = a.findings[i];
    const core::FaultFinding& y = b.findings[i];
    if (x.rule != y.rule || x.passed != y.passed || x.evidence_frames != y.evidence_frames) {
      return false;
    }
  }
  return true;
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Samples::max() const {
  return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
}

std::size_t Samples::count_above(double value) const {
  return static_cast<std::size_t>(
      std::count_if(values_.begin(), values_.end(), [value](double v) { return v > value; }));
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = Value{value, unit};
  std::printf("metric %-36s %14.6g %s\n", name.c_str(), value, unit.c_str());
}

void Report::check(const std::string& name, bool ok, std::uint64_t failures,
                   const std::string& detail) {
  if (ok) {
    std::printf("check  %-36s ok\n", name.c_str());
    return;
  }
  ++checks_failed_;
  failed_ += failures;
  std::printf("check  %-36s FAILED (%llu failed operations)%s%s\n", name.c_str(),
              static_cast<unsigned long long>(failures), detail.empty() ? "" : ": ",
              detail.c_str());
}

void Report::shed(const std::string& name, std::uint64_t n) {
  failed_ += n;
  std::printf("shed   %-36s %llu%s\n", name.c_str(), static_cast<unsigned long long>(n),
              n == 0 ? "" : " (counted as failed)");
}

bool Report::print_result(const std::vector<std::string>& names) const {
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = metrics_.find(names[i]);
    if (it == metrics_.end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "perfbench: metric '%s' was not measured\n", names[i].c_str());
      return false;
    }
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", names[i].c_str(), it->second.value,
                  it->second.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return true;
}

std::size_t corpus_clips(const Options& opt) { return opt.smoke ? 4 : 12; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void release_free_memory() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

}  // namespace slj::perfbench
