#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

namespace slj::obs {

namespace {

// Approximate per-record bookkeeping footprints (bytes). These only steer
// the eviction budget, so round constants beat precise sizeof arithmetic.
constexpr std::size_t kSessionOverhead = 512;
constexpr std::size_t kPushOverhead = 160;
constexpr std::size_t kTickEntryOverhead = 256;
constexpr std::size_t kResolvedFaultBytes = 64;
constexpr std::size_t kCloseOverhead = 256;

std::size_t frame_bytes(const RgbImage& frame) {
  return static_cast<std::size_t>(frame.width()) * static_cast<std::size_t>(frame.height()) * 3;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderConfig config) : config_(config) {}

std::int64_t FlightRecorder::stamp(ingest::Clock::time_point now) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(now.time_since_epoch()).count();
}

FlightRecorder::SessionCapture* FlightRecorder::capture_of(int session) {
  if (session < 0 || static_cast<std::size_t>(session) >= sessions_.size()) return nullptr;
  SessionCapture* capture = sessions_[static_cast<std::size_t>(session)].get();
  if (capture == nullptr || capture->tainted) return nullptr;
  return capture;
}

void FlightRecorder::account(SessionCapture& capture, std::size_t delta) {
  capture.bytes += delta;
  total_bytes_ += delta;
}

void FlightRecorder::evict_session(std::size_t index) {
  SessionCapture* capture = sessions_[index].get();
  total_bytes_ -= capture->bytes;
  ++evicted_;
  if (capture->closed) {
    // Fully gone: nothing more can arrive for a closed session.
    sessions_[index].reset();
  } else {
    // Still open: its capture is no longer complete-from-open, so it can
    // never be dumped again — keep a tainted stub so later events for this
    // id are ignored (ids are never reused, so the taint cannot leak).
    capture->tainted = true;
    capture->pushes.clear();
    capture->pushes.shrink_to_fit();
    capture->ticks.clear();
    capture->ticks.shrink_to_fit();
    capture->open.background.reset();
    capture->bytes = 0;
  }
}

void FlightRecorder::enforce_budgets(std::int64_t now_ns) {
  // Window: closed sessions older than the retention horizon age out.
  if (config_.window_ns > 0) {
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      SessionCapture* capture = sessions_[i].get();
      if (capture == nullptr || capture->tainted || !capture->closed) continue;
      if (capture->close.t_ns < now_ns - config_.window_ns) evict_session(i);
    }
  }
  // Byte budget: evict the oldest closed session first; only when open
  // sessions alone exceed the budget, taint the longest-running open one.
  while (total_bytes_ > config_.max_bytes) {
    std::size_t victim = sessions_.size();
    std::uint64_t victim_seq = 0;
    bool victim_closed = false;
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const SessionCapture* capture = sessions_[i].get();
      if (capture == nullptr || capture->tainted) continue;
      const bool closed = capture->closed;
      const std::uint64_t seq = closed ? capture->close_seq : capture->open_seq;
      if (victim == sessions_.size() || (closed && !victim_closed) ||
          (closed == victim_closed && seq < victim_seq)) {
        victim = i;
        victim_seq = seq;
        victim_closed = closed;
      }
    }
    if (victim == sessions_.size()) break;  // nothing left to shed
    evict_session(victim);
  }
}

void FlightRecorder::on_open(ingest::Clock::time_point now, int session,
                             const ingest::IngestSessionConfig& config,
                             const RgbImage& background) {
  if (session < 0) return;
  // The one copy of the pixels is made before the lock, so no other caller
  // waits on the recorder behind a pixel copy; later holders share it.
  auto pixels = std::make_shared<const RgbImage>(background);
  slj::LockGuard lock(mutex_);
  if (static_cast<std::size_t>(session) >= sessions_.size()) {
    sessions_.resize(static_cast<std::size_t>(session) + 1);
  }
  auto capture = std::make_unique<SessionCapture>();
  capture->id = session;
  capture->open_seq = capture_seq_++;
  capture->open.t_ns = stamp(now);
  capture->open.session = session;
  capture->open.config = replay::to_trace_config(config);
  capture->open.background = std::move(pixels);
  account(*capture, kSessionOverhead + frame_bytes(background));
  sessions_[static_cast<std::size_t>(session)] = std::move(capture);
  enforce_budgets(stamp(now));
}

void FlightRecorder::on_push(ingest::Clock::time_point now, int session, const RgbImage& frame,
                             ingest::PushOutcome outcome, std::uint64_t sequence) {
  replay::PushRecord record;
  record.t_ns = stamp(now);
  record.session = session;
  record.outcome = outcome;
  record.sequence = sequence;
  std::size_t delta = kPushOverhead;
  if (ingest::push_accepted(outcome)) {
    // Copied before the lock (see on_open). A push for a session the
    // recorder ignores wastes this copy, which is rare: such sessions were
    // opened before the tap was installed or were shed by the budget.
    record.frame = std::make_shared<const RgbImage>(frame);
    delta += frame_bytes(frame);
  }
  slj::LockGuard lock(mutex_);
  SessionCapture* capture = capture_of(session);
  if (capture == nullptr) return;  // pre-install, evicted, or tainted session
  capture->pushes.emplace_back(capture_seq_++, std::move(record));
  account(*capture, delta);
  enforce_budgets(stamp(now));
}

void FlightRecorder::on_tick(ingest::Clock::time_point now, const ingest::DrainBatch& batch,
                             const std::vector<core::StreamUpdate>& updates, std::size_t count) {
  slj::LockGuard lock(mutex_);
  const std::uint64_t tick_seq = capture_seq_++;
  const std::int64_t t_ns = stamp(now);
  for (std::size_t i = 0; i < count; ++i) {
    SessionCapture* capture = capture_of(batch.feeds[i].session);
    if (capture == nullptr) continue;
    CapturedTickEntry captured;
    captured.capture_seq = tick_seq;
    captured.t_ns = t_ns;
    captured.entry.session = batch.feeds[i].session;
    captured.entry.sequence = batch.pending(i).sequence;
    captured.entry.update = updates[i];
    account(*capture,
            kTickEntryOverhead + captured.entry.update.resolved.size() * kResolvedFaultBytes);
    capture->ticks.push_back(std::move(captured));
  }
  enforce_budgets(t_ns);
}

void FlightRecorder::on_close(ingest::Clock::time_point now, int session,
                              const core::JumpReport& report, std::uint64_t discarded,
                              bool evicted) {
  slj::LockGuard lock(mutex_);
  SessionCapture* capture = capture_of(session);
  if (capture == nullptr) {
    // A tainted session's close completes its story: free the stub.
    if (session >= 0 && static_cast<std::size_t>(session) < sessions_.size()) {
      sessions_[static_cast<std::size_t>(session)].reset();
    }
    return;
  }
  capture->closed = true;
  capture->close_seq = capture_seq_++;
  capture->close.t_ns = stamp(now);
  capture->close.session = session;
  capture->close.evicted = evicted;
  capture->close.discarded = discarded;
  capture->close.report = report;
  account(*capture, kCloseOverhead);
  enforce_budgets(stamp(now));
}

FlightRecorder::DumpStats FlightRecorder::dump(const std::string& path) {
  DumpStats stats;
  // A pointer snapshot: records land in a flat pool by value, but their
  // pixels are the capture's shared buffers, so nothing large is copied and
  // the lock covers bookkeeping only. `order` carries (capture_seq, pool
  // index) so the global sort shuffles trivial pairs, not variant payloads.
  std::vector<replay::TraceRecord> pool;
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  const auto emit = [&pool, &order](std::uint64_t seq, replay::TraceRecord record) {
    order.emplace_back(seq, pool.size());
    pool.push_back(std::move(record));
  };
  {
    slj::LockGuard lock(mutex_);
    // Regrouping scratch: tick entries are stored per-session (eviction
    // unit) but must be emitted as whole TickRecords keyed by the tick they
    // were captured in.
    std::map<std::uint64_t, replay::TickRecord> tick_groups;
    std::vector<std::uint64_t> admitted;

    for (const std::unique_ptr<SessionCapture>& owned : sessions_) {
      const SessionCapture* capture = owned.get();
      if (capture == nullptr || capture->tainted) continue;

      admitted.clear();
      std::uint64_t replaced = 0;
      for (const auto& [seq, push] : capture->pushes) {
        if (ingest::push_accepted(push.outcome)) admitted.push_back(push.sequence);
        if (push.outcome == ingest::PushOutcome::kReplacedOldest) ++replaced;
      }
      std::sort(admitted.begin(), admitted.end());

      // Prefix truncation: the first tick entry referencing a frame whose
      // push record has not landed yet (producer-side capture race) ends
      // this session's replayable history.
      std::size_t keep = capture->ticks.size();
      for (std::size_t i = 0; i < capture->ticks.size(); ++i) {
        if (!std::binary_search(admitted.begin(), admitted.end(),
                                capture->ticks[i].entry.sequence)) {
          keep = i;
          break;
        }
      }
      const bool truncated = keep < capture->ticks.size();
      if (truncated) ++stats.truncated_sessions;

      // The close record is only valid against the session's *full* history:
      // drop it when ticks were truncated, or when the capture's own books
      // (admitted - replaced - delivered == discarded, replaced == the
      // report's frames_shed) do not balance — the same per-close re-checks
      // the replayer performs. A replacing push logged after its session's
      // close has not landed yet and leaves frames_shed ahead of `replaced`.
      bool emit_close = capture->closed && !truncated;
      if (emit_close) {
        const std::uint64_t delivered = keep;
        if (admitted.size() - replaced - delivered != capture->close.discarded ||
            replaced != capture->close.report.frames_shed) {
          emit_close = false;
          ++stats.truncated_sessions;
        }
      }

      emit(capture->open_seq, capture->open);
      for (const auto& [seq, push] : capture->pushes) {
        emit(seq, push);
        ++stats.pushes;
      }
      for (std::size_t i = 0; i < keep; ++i) {
        const CapturedTickEntry& captured = capture->ticks[i];
        replay::TickRecord& group = tick_groups[captured.capture_seq];
        group.t_ns = captured.t_ns;
        group.entries.push_back(captured.entry);
      }
      if (emit_close) {
        emit(capture->close_seq, capture->close);
        ++stats.closes;
      }
      ++stats.sessions;
    }
    for (auto& [seq, group] : tick_groups) {
      emit(seq, std::move(group));
      ++stats.ticks;
    }
  }

  std::sort(order.begin(), order.end());

  // Re-anchor timestamps to the earliest emitted record, like a recording
  // that started there: the dump carries event spacing, not an epoch.
  std::int64_t t0 = 0;
  std::int64_t t_max = 0;
  bool have_t0 = false;
  const auto visit_t = [](replay::TraceRecord& record) -> std::int64_t& {
    return std::visit([](auto& r) -> std::int64_t& { return r.t_ns; }, record);
  };
  for (replay::TraceRecord& record : pool) {
    const std::int64_t t = visit_t(record);
    if (!have_t0 || t < t0) {
      t0 = t;
      have_t0 = true;
    }
    if (t > t_max) t_max = t;
  }
  stats.span_ns = have_t0 ? t_max - t0 : 0;

  // Stream the snapshot to <path>.tmp, then rename: a reader (or a crashed
  // dump) never sees a half-written incident file. The summary is
  // synthesized from the emitted records and appended only when the
  // conservation law holds for them (see file comment).
  const std::string tmp = path + ".tmp";
  try {
    replay::TraceWriter writer(tmp);
    replay::SummaryRecord summary;
    for (const auto& [seq, index] : order) {
      replay::TraceRecord& record = pool[index];
      visit_t(record) -= t0;
      writer.append(record);
      if (const auto* push = std::get_if<replay::PushRecord>(&record)) {
        switch (push->outcome) {
          case ingest::PushOutcome::kReplacedOldest:
            ++summary.dropped_oldest;
            ++summary.pushed;
            break;
          case ingest::PushOutcome::kAccepted: ++summary.pushed; break;
          case ingest::PushOutcome::kClosed: ++summary.closed_pushes; break;
        }
      } else if (const auto* tick = std::get_if<replay::TickRecord>(&record)) {
        ++summary.ticks;
        summary.delivered += tick->entries.size();
      } else if (const auto* close = std::get_if<replay::CloseRecord>(&record)) {
        summary.discarded += close->discarded;
        if (close->evicted) ++summary.evicted_sessions;
      }
    }
    if (summary.pushed == summary.delivered + summary.dropped_oldest + summary.discarded) {
      stats.has_summary = true;
      writer.append(summary);
    }
    writer.finish();
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("flight recorder: cannot rename " + tmp + " to " + path);
  }
  return stats;
}

std::size_t FlightRecorder::bytes() const {
  slj::LockGuard lock(mutex_);
  return total_bytes_;
}

std::size_t FlightRecorder::sessions() const {
  slj::LockGuard lock(mutex_);
  std::size_t n = 0;
  for (const std::unique_ptr<SessionCapture>& capture : sessions_) {
    if (capture != nullptr && !capture->tainted) ++n;
  }
  return n;
}

std::uint64_t FlightRecorder::evicted_sessions() const {
  slj::LockGuard lock(mutex_);
  return evicted_;
}

}  // namespace slj::obs
