#include "replay/trace_recorder.hpp"

#include <chrono>

namespace slj::replay {

namespace {

/// A non-owning SharedImage (aliasing constructor over an empty owner): the
/// record is encoded and dropped inside the tap callback, while the caller's
/// image is still alive, so there is nothing to copy or own.
SharedImage borrow(const RgbImage& image) { return SharedImage(SharedImage(), &image); }

}  // namespace

TraceRecorder::TraceRecorder(const std::string& path) : writer_(path) {}

std::int64_t TraceRecorder::relative_ns(ingest::Clock::time_point now) {
  // Anchored on the first event so the trace carries only event spacing,
  // never an absolute epoch. Callers hold mutex_.
  if (!t0_) t0_ = now;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now - *t0_).count();
}

void TraceRecorder::on_open(ingest::Clock::time_point now, int session,
                            const ingest::IngestSessionConfig& config,
                            const RgbImage& background) {
  slj::LockGuard lock(mutex_);
  OpenRecord record;
  record.t_ns = relative_ns(now);
  record.session = session;
  record.config = to_trace_config(config);
  record.background = borrow(background);
  writer_.append(record);
  ++events_;
}

void TraceRecorder::on_push(ingest::Clock::time_point now, int session, const RgbImage& frame,
                            ingest::PushOutcome outcome, std::uint64_t sequence) {
  slj::LockGuard lock(mutex_);
  PushRecord record;
  record.t_ns = relative_ns(now);
  record.session = session;
  record.outcome = outcome;
  record.sequence = sequence;
  // A refused frame never influenced the run — store only the verdict and
  // keep the (potentially large) pixels out of the trace.
  if (ingest::push_accepted(outcome)) record.frame = borrow(frame);
  writer_.append(record);
  ++events_;
}

void TraceRecorder::on_tick(ingest::Clock::time_point now, const ingest::DrainBatch& batch,
                            const std::vector<core::StreamUpdate>& updates, std::size_t count) {
  slj::LockGuard lock(mutex_);
  TickRecord record;
  record.t_ns = relative_ns(now);
  record.entries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    TickEntry entry;
    entry.session = batch.feeds[i].session;
    entry.sequence = batch.pending(i).sequence;
    entry.update = updates[i];
    record.entries.push_back(std::move(entry));
  }
  writer_.append(record);
  ++events_;
}

void TraceRecorder::on_close(ingest::Clock::time_point now, int session,
                             const core::JumpReport& report, std::uint64_t discarded,
                             bool evicted) {
  slj::LockGuard lock(mutex_);
  CloseRecord record;
  record.t_ns = relative_ns(now);
  record.session = session;
  record.evicted = evicted;
  record.discarded = discarded;
  record.report = report;
  writer_.append(record);
  ++events_;
}

void TraceRecorder::finish(const ingest::IngestMetricsSnapshot& metrics) {
  slj::LockGuard lock(mutex_);
  SummaryRecord record;  // t_ns stays 0: the summary carries totals, not an event time
  record.pushed = metrics.pushed;
  record.delivered = metrics.delivered;
  record.dropped_oldest = metrics.dropped_oldest;
  record.rejected = metrics.rejected;
  record.rate_limited = metrics.rate_limited;
  record.closed_pushes = metrics.closed_pushes;
  record.discarded = metrics.discarded;
  record.ticks = metrics.ticks;
  record.evicted_sessions = metrics.evicted_sessions;
  writer_.append(record);
  writer_.finish();
}

std::uint64_t TraceRecorder::events() const {
  slj::LockGuard lock(mutex_);
  return events_;
}

}  // namespace slj::replay
