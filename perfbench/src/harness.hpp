// Shared pieces of the jump-pipeline benchmark: command-line options, the
// seed-generated corpus with its serial reference, exact sample statistics,
// and the result sink every workload reports into.
//
// The benchmark only drives the library through its public entry points and
// times each layer from outside, around those calls.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/faults.hpp"
#include "pose/classifier.hpp"
#include "synth/dataset.hpp"

namespace slj::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint32_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode: the same code paths on a tiny corpus and short windows.
  bool smoke = false;
};

/// Frames per test clip: the paper's test clips are 45 frames (0.75 s at
/// 60 fps), and every live session streams exactly one clip.
inline constexpr int kClipFrames = 45;

/// Thread budget: at most this many threads run at once anywhere in the
/// benchmark, load generator included.
unsigned thread_budget();

/// What a serial StreamSession computes for one clip: the oracle every
/// workload's output is checked against.
struct ClipReference {
  std::vector<pose::FrameResult> frames;
  core::JumpReport report;
};

/// The seed-generated workload inputs plus the trained model.
struct Corpus {
  pose::PoseDbnClassifier classifier;
  std::vector<synth::Clip> clips;
  std::vector<ClipReference> reference;
  std::size_t frame_count() const {
    return clips.size() * static_cast<std::size_t>(kClipFrames);
  }
};

/// Trains the classifier on the paper's fixed 12-clip training set, renders
/// `clip_count` test clips from `seed`, and runs the serial reference.
Corpus build_corpus(std::uint32_t seed, std::size_t clip_count);

bool same_result(const pose::FrameResult& a, const pose::FrameResult& b);
bool same_report(const core::JumpReport& a, const core::JumpReport& b);

/// Exact order statistics over a sample set (no histogram). quantile()
/// uses the nearest-rank definition, so the value is always a sample.
class Samples {
 public:
  void reserve(std::size_t n) { values_.reserve(n); }
  void add(double v) { values_.push_back(v); }
  std::size_t size() const { return values_.size(); }
  double quantile(double q) const;
  double max() const;
  /// Samples strictly greater than `value`.
  std::size_t count_above(double value) const;

 private:
  std::vector<double> values_;
};

/// Collects metrics, findings and correctness checks for one run and
/// prints the final result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);

  /// Records the outcome of one correctness check; a failed check counts
  /// `failures` operations as failed and prints which check it was.
  void check(const std::string& name, bool ok, std::uint64_t failures = 1,
             const std::string& detail = "");
  /// Adds to the operations the run attempted (frames offered or scored).
  void attempt(std::uint64_t n) { attempted_ += n; }
  /// Operations that failed for want of capacity (frames dropped or
  /// rejected): they count as failed, but the outputs stay correct.
  void shed(const std::string& name, std::uint64_t n);

  std::uint64_t failed() const { return failed_; }
  bool correct() const { return checks_failed_ == 0; }

  /// Prints the JSON result line restricted to `names`; returns false (and
  /// prints nothing) if any of them was not measured.
  bool print_result(const std::vector<std::string>& names) const;

 private:
  struct Value {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::size_t checks_failed_ = 0;
};

/// Peak resident set size of the process so far, in MiB.
double peak_rss_mb();

/// Clips in the generated corpus (a handful in smoke mode).
std::size_t corpus_clips(const Options& opt);

/// Returns freed heap pages to the OS (glibc), so that what one set-up
/// repetition freed does not count in the next one's resident memory or in
/// the workload's; a no-op elsewhere.
void release_free_memory();

/// Median of a small set of timings.
double median(std::vector<double> values);

/// Set-up is repeated this many times per run and reported as the median,
/// so one slow repetition does not move setup_s.
inline constexpr int kSetupRuns = 3;

/// Runs `setup` on fresh state kSetupRuns times (once in smoke mode and in
/// the traced run, whose result line carries no setup_s), reports the median
/// wall time as setup_s and returns the last state.
template <class State, class Fn>
State timed_setup(const Options& opt, Report& report, Fn&& setup) {
  const int runs = opt.smoke || opt.trace ? 1 : kSetupRuns;
  std::vector<double> times;
  State state;
  for (int r = 0; r < runs; ++r) {
    state = State();  // release the previous repetition before building anew
    release_free_memory();
    const Clock::time_point t0 = Clock::now();
    setup(state);
    times.push_back(seconds_since(t0));
  }
  release_free_memory();
  report.metric("setup_s", median(times), "s");
  return state;
}

// Workloads (one translation unit each).
void run_batch(const Options& opt, Report& report);
void run_live(const Options& opt, Report& report);
void run_layers(const Options& opt, Report& report);

}  // namespace slj::perfbench
