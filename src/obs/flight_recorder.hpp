// FlightRecorder: a bounded, always-attachable ring-buffer IngestTap that
// turns "something just went wrong on the live service" into a replayable
// .sljtrace — without pre-arranged recording and without unbounded memory.
// It is also the only way a .sljtrace is written: `sljtool record` and the
// golden corpus dump a recorder with window_ns = 0 once every session has
// closed, which within the byte budget is the whole run.
//
// Why retention is per *session*, not per event. A .sljtrace only replays
// bit-for-bit if every session it contains is complete from its open record
// (decoder/background state depends on the full frame history), so a naive
// "keep the last N seconds of events" window would produce torn sessions the
// replayer rejects. Instead:
//
//   * Open sessions are retained whole, from their open record onward.
//   * Closed sessions age out: once a session's close record is older than
//     `window_ns` (the "last N seconds" knob) it is evicted entirely.
//   * The capture is byte-bounded by `max_bytes`. Over budget, the oldest
//     *closed* sessions are evicted first; if open sessions alone still
//     blow the budget, the longest-running open session is evicted and
//     permanently *tainted* — excluded from dumps (its capture is no longer
//     complete-from-open) but tracked so later events for it are ignored
//     cheaply. Session ids are never reused, so a taint cannot leak onto a
//     new session.
//
// Memory: each captured frame (and background) is held exactly once, as an
// immutable shared buffer built on the producer thread *before* the mutex is
// taken, so producers never copy pixels under the lock. dump() takes a
// pointer snapshot of the ordered records under the mutex — headers by
// value, pixels shared — and streams it through replay::TraceWriter outside
// the lock; no pixel is copied and the capture is left untouched.
// TraceReplayer::replay_file reads the dump back streamed (a push index plus
// one tick's frames). The budget is bytes as well as time: full-size noisy
// frames do not RLE-compress (≈142 KB each), so the default 256 MiB holds
// ≈2 s of 16 × 60 fps traffic, far less than the 30 s window_ns default.
//
// dump() materializes the retained capture as a valid trace, atomically
// (write to <path>.tmp, then rename). Two live-capture races are handled:
//
//   * push-vs-tick: a producer may log its admitted push after the scheduler
//     logged the tick that consumed it. A dump cut inside that window would
//     contain a tick referencing a frame with no push record — structurally
//     corrupt — so each session is prefix-truncated at the first such tick
//     entry, and its close record (whose golden report/accounting would no
//     longer match the truncated history) is dropped with the tail.
//   * totals balance: a summary record is synthesized from the *emitted*
//     records and included only when the plane's conservation law
//     (pushed == delivered + dropped_oldest + discarded) holds for them —
//     dumps taken mid-flight omit the summary (the replayer warns but still
//     checks every golden update/report/per-close account), dumps taken
//     after a flush get the full summary cross-check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/annotations.hpp"
#include "ingest/ingest_tap.hpp"
#include "replay/trace_format.hpp"

namespace slj::obs {

struct FlightRecorderConfig {
  /// Closed-session retention horizon ("dump the last N seconds"): a closed
  /// session whose close record is older than this is evicted. <= 0 keeps
  /// closed sessions until the byte budget pushes them out.
  std::int64_t window_ns = 30'000'000'000;  // 30 s
  /// Approximate capture budget across all retained sessions.
  std::size_t max_bytes = 256u << 20;  // 256 MiB
};

class FlightRecorder : public ingest::IngestTap {
 public:
  explicit FlightRecorder(FlightRecorderConfig config = {});

  // IngestTap — on_push arrives concurrently from producer threads; one
  // mutex serializes the capture bookkeeping (pixels are copied before it).
  void on_open(ingest::Clock::time_point now, int session,
               const ingest::IngestSessionConfig& config, const RgbImage& background)
      SLJ_EXCLUDES(mutex_) override;
  void on_push(ingest::Clock::time_point now, int session, const RgbImage& frame,
               ingest::PushOutcome outcome, std::uint64_t sequence)
      SLJ_EXCLUDES(mutex_) override;
  void on_tick(ingest::Clock::time_point now, const ingest::DrainBatch& batch,
               const std::vector<core::StreamUpdate>& updates, std::size_t count)
      SLJ_EXCLUDES(mutex_) override;
  void on_close(ingest::Clock::time_point now, int session, const core::JumpReport& report,
                std::uint64_t discarded, bool evicted)
      SLJ_EXCLUDES(mutex_) override;

  struct DumpStats {
    std::size_t sessions = 0;      ///< sessions included in the dump
    std::size_t pushes = 0;        ///< push records written
    std::size_t ticks = 0;         ///< tick records written
    std::size_t closes = 0;        ///< close records written
    std::size_t truncated_sessions = 0;  ///< sessions cut at a push-vs-tick race
    bool has_summary = false;      ///< totals balanced -> summary included
    std::int64_t span_ns = 0;      ///< captured time span (re-anchored)
  };

  /// Writes the retained capture as a .sljtrace, atomically (tmp + rename).
  /// Safe while the service is live: the lock is held only for a pointer
  /// snapshot, and the capture is not modified. Throws std::runtime_error on
  /// I/O failure. An empty capture still produces a valid (record-free) trace.
  DumpStats dump(const std::string& path) SLJ_EXCLUDES(mutex_);

  /// Approximate bytes currently retained.
  std::size_t bytes() const SLJ_EXCLUDES(mutex_);
  /// Sessions currently retained (open + closed, excluding tainted).
  std::size_t sessions() const SLJ_EXCLUDES(mutex_);
  /// Sessions evicted to honor the byte budget or the window so far.
  std::uint64_t evicted_sessions() const SLJ_EXCLUDES(mutex_);

 private:
  /// One tick entry as captured: tagged with the tick it belonged to so the
  /// dump can regroup entries (stored per-session for eviction) back into
  /// whole TickRecords.
  struct CapturedTickEntry {
    std::uint64_t capture_seq = 0;  ///< global capture order of the tick
    std::int64_t t_ns = 0;          ///< the tick's timestamp
    replay::TickEntry entry;
  };

  struct SessionCapture {
    int id = -1;
    bool tainted = false;  ///< evicted while open; ignore all further events
    std::uint64_t open_seq = 0;
    replay::OpenRecord open;
    std::vector<std::pair<std::uint64_t, replay::PushRecord>> pushes;  ///< (capture_seq, rec)
    std::vector<CapturedTickEntry> ticks;
    bool closed = false;
    std::uint64_t close_seq = 0;
    replay::CloseRecord close;
    std::size_t bytes = 0;  ///< approximate retained footprint
  };

  SessionCapture* capture_of(int session) SLJ_REQUIRES(mutex_);
  std::int64_t stamp(ingest::Clock::time_point now) const;
  void account(SessionCapture& capture, std::size_t delta) SLJ_REQUIRES(mutex_);
  void evict_session(std::size_t index) SLJ_REQUIRES(mutex_);
  /// Window + byte-budget enforcement; `now_ns` is the newest event stamp.
  void enforce_budgets(std::int64_t now_ns) SLJ_REQUIRES(mutex_);

  FlightRecorderConfig config_;
  mutable slj::Mutex mutex_;
  /// index = session id (the router allocates ids densely and never reuses
  /// them). Null = never seen or fully evicted.
  std::vector<std::unique_ptr<SessionCapture>> sessions_ SLJ_GUARDED_BY(mutex_);
  std::uint64_t capture_seq_ SLJ_GUARDED_BY(mutex_) = 0;
  std::size_t total_bytes_ SLJ_GUARDED_BY(mutex_) = 0;
  std::uint64_t evicted_ SLJ_GUARDED_BY(mutex_) = 0;
};

}  // namespace slj::obs
