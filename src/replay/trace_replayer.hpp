// TraceReplayer: re-drives a recorded ingest run and checks that today's
// code still produces byte-for-byte the same analysis.
//
// What is replayed — and what deliberately is not. The live plane has two
// kinds of behaviour:
//
//   * Scheduling: which pushes were admitted, which were shed, and how
//     frames were grouped into ticks. This depends on producer/scheduler
//     interleaving, so it is inherently racy —
//     the trace records the *decisions* (push outcomes, tick batches) and
//     the replayer treats them as the script.
//   * Analysis: what StreamManager computed for each tick batch. This is
//     the deterministic part — the manager's tick contract guarantees
//     bit-identical updates at any worker count — and it is re-executed
//     from scratch here, at whatever worker count the caller picks, then
//     compared against the recorded golden outputs.
//
// Drop accounting is verified too: per-session discard and shed counts and
// the final summary totals are recomputed from the recorded push outcomes and
// checked against the recorded CloseRecords/SummaryRecord, so the books
// (pushed == delivered + dropped_oldest + discarded) are re-balanced on
// every replay.
//
// Time is fully virtual: nothing sleeps, nothing reads a clock; recorded
// timestamps only report the original run's span.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "pose/classifier.hpp"
#include "replay/trace_format.hpp"

namespace slj::replay {

struct ReplayOptions {
  /// Worker threads for the replaying StreamManager (0 = hardware
  /// concurrency). Golden parity must hold at *any* value — that is the
  /// worker-count-invariance regression the corpus tests pin.
  unsigned workers = 1;
};

struct ReplayResult {
  // -- what was re-driven --
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t ticks = 0;
  std::uint64_t frames_replayed = 0;   ///< tick entries re-analysed
  std::int64_t recorded_span_ns = 0;   ///< last recorded event timestamp
  bool has_summary = false;

  // -- divergence, by kind --
  std::uint64_t update_mismatches = 0;      ///< per-frame StreamUpdate divergence
  std::uint64_t report_mismatches = 0;      ///< final JumpReport divergence
  std::uint64_t accounting_mismatches = 0;  ///< discard/summary bookkeeping divergence

  /// Human-readable descriptions, first kMaxMismatchDetails kept.
  static constexpr std::size_t kMaxMismatchDetails = 16;
  std::vector<std::string> mismatches;

  std::uint64_t total_mismatches() const {
    return update_mismatches + report_mismatches + accounting_mismatches;
  }
  /// The replay reproduced the recording exactly.
  bool identical() const { return total_mismatches() == 0; }
  /// First divergence, or "" when identical.
  std::string first_mismatch() const { return mismatches.empty() ? "" : mismatches.front(); }
};

class TraceReplayer {
 public:
  /// `classifier` must outlive the replayer and must be the model the
  /// recording ran with (the trace stores session configs, not weights).
  TraceReplayer(const pose::PoseDbnClassifier& classifier, core::PipelineParams params = {},
                ReplayOptions options = {});

  /// Re-drives `trace` and compares against its golden records. Structural
  /// violations — a tick naming a session that never opened, a frame the
  /// trace never admitted, duplicate (session, sequence) pairs — mean the
  /// trace itself is torn/corrupt and throw std::runtime_error; behavioural
  /// divergence (today's code computing something else) is returned in the
  /// result instead.
  ReplayResult replay(const Trace& trace) const;

  /// Same result as replay(load_trace(path)), streamed from the file: the
  /// trace is never loaded whole. Memory is an index of the admitted pushes
  /// (file offsets keyed by session and sequence) plus the frames of one
  /// tick. Frames no tick consumes are never decoded.
  ReplayResult replay_file(const std::string& path) const;

 private:
  const pose::PoseDbnClassifier* classifier_;
  core::PipelineParams params_;
  ReplayOptions options_;
};

}  // namespace slj::replay
