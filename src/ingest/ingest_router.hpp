// IngestRouter: the queue plane between asynchronous frame producers and the
// lockstep StreamManager. It owns one FrameQueue per live session plus the
// session lifecycle (open / close / idle detection), accepts push() from any
// producer thread, and exposes drain(): snapshot at most one ready frame per
// session into a DrainBatch that feeds exactly one StreamManager::tick_into
// call. One-frame-per-session-per-drain is what makes the batch satisfy the
// manager's "each session advances at most once per tick" contract by
// construction.
//
// Thread model: push() is safe from any number of threads concurrently with
// everything else; drain()/collect_idle() are single-consumer (the scheduler
// thread); open()/close() may run from any thread but the caller must ensure
// the underlying StreamManager is not mid-tick (IngestService serializes
// this with its pass mutex).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/annotations.hpp"
#include "core/stream_engine.hpp"
#include "ingest/frame_queue.hpp"
#include "ingest/ingest_metrics.hpp"

namespace slj::ingest {

struct IngestSessionConfig {
  FrameQueueConfig queue;
  /// A session whose queue has been empty and whose producers have been
  /// silent for this long is reported by collect_idle() for eviction.
  /// zero() = never evict.
  Clock::duration idle_timeout = Clock::duration::zero();
};

/// One drained round, ready for StreamManager::tick_into. `frames[i]` backs
/// `feeds[i].frame`; both arrays are rebuilt by every drain() but their
/// storage (including the recycled frame buffers) is reused, so a reused
/// batch drains without heap allocation in the steady state.
struct DrainBatch {
  std::vector<core::StreamManager::Feed> feeds;
  std::size_t size() const { return feeds.size(); }

  /// Provenance for feeds[i] (latency accounting, ordering checks).
  const PendingFrame& pending(std::size_t i) const { return frames[i]; }

 private:
  friend class IngestRouter;
  /// Slots 0..feeds.size()-1 are live; the vector only ever grows so popped
  /// frame buffers stay recycled across drains.
  std::vector<PendingFrame> frames;
};

class IngestRouter {
 public:
  struct Config {
    /// Defaults for sessions opened without an explicit config.
    IngestSessionConfig session;
    /// Time source; null = Clock::now(). Tests inject a manual clock to make
    /// idle eviction and recorded timestamps deterministic.
    std::function<Clock::time_point()> clock;
  };

  /// The router drives `manager` exclusively: it must be the only caller of
  /// open_session/close_session so session ids stay aligned.
  explicit IngestRouter(core::StreamManager& manager, Config config = {});

  Clock::time_point now() const { return clock_(); }

  int open(const RgbImage& background) SLJ_EXCLUDES(sessions_mutex_);
  int open(const RgbImage& background, IngestSessionConfig config) SLJ_EXCLUDES(sessions_mutex_);

  /// Offers one frame from any producer thread. Unknown ids and frames
  /// whose size differs from the session's background throw
  /// std::invalid_argument before anything is admitted; a closed (or
  /// closing) session returns kClosed — producers racing an eviction get a
  /// quiet refusal, not a crash. An admitted frame's queue sequence lands in
  /// `sequence` when non-null.
  PushOutcome push(int session, const RgbImage& frame, std::uint64_t* sequence = nullptr);

  /// Pops at most one ready frame per open session (in session-id order)
  /// into `batch` and builds the matching Feed list. Returns the number of
  /// frames drained. Single consumer.
  std::size_t drain(DrainBatch& batch) SLJ_EXCLUDES(sessions_mutex_);

  /// Appends the ids of sessions whose idle_timeout elapsed with an empty
  /// queue and no producer activity. Single consumer.
  void collect_idle(std::vector<int>& out) SLJ_EXCLUDES(sessions_mutex_);

  /// Seals a session's queue: further pushes return kClosed, queued frames
  /// can still drain. Safe concurrently with producers.
  void seal(int session);

  /// Closes the session: seals the queue, discards any still-queued frames
  /// (returned as the discard count through `discarded` when non-null) and
  /// finishes the underlying StreamSession. The report's frames_shed is the
  /// number of frames drop-oldest discarded from the session's queue. The
  /// caller must ensure the manager is not mid-tick.
  core::JumpReport close(int session, std::uint64_t* discarded = nullptr)
      SLJ_EXCLUDES(sessions_mutex_);

  std::size_t open_sessions() const SLJ_EXCLUDES(sessions_mutex_);
  /// Frames queued across all open sessions.
  std::size_t total_depth() const SLJ_EXCLUDES(sessions_mutex_);
  /// Queue depth of one session (throws on unknown id).
  std::size_t depth(int session) const;
  /// Frames admitted into a session's queue so far (throws on unknown id).
  std::uint64_t admitted(int session) const;

  IngestMetrics& metrics() { return metrics_; }

  /// Totals plus per-session rows and gauges.
  IngestMetricsSnapshot snapshot() SLJ_EXCLUDES(sessions_mutex_);

 private:
  struct SessionState {
    int id = -1;
    int width = 0;   ///< the background's size, which every frame must match
    int height = 0;
    IngestSessionConfig config;
    FrameQueue queue;
    Clock::time_point opened_at{};
    std::atomic<Clock::rep> last_activity{0};
    std::atomic<std::uint64_t> delivered{0};  ///< bumped by IngestService
    /// Per-session end-to-end latency (enqueue -> sink), recorded by
    /// IngestService alongside the plane-wide histogram. Feeds the
    /// per-session p50/p99 snapshot rows the SLO tracker scores.
    LatencyHistogram latency;

    SessionState(int id_, const RgbImage& background, IngestSessionConfig config_,
                 Clock::time_point now)
        : id(id_), width(background.width()), height(background.height()), config(config_),
          queue(config_.queue), opened_at(now), last_activity(now.time_since_epoch().count()) {}
  };

  std::shared_ptr<SessionState> state_at(int session) const
      SLJ_EXCLUDES(sessions_mutex_);  ///< throws on unknown id
  friend class IngestService;  ///< bumps SessionState::delivered on delivery
  std::shared_ptr<SessionState> state_if_open(int session) const SLJ_EXCLUDES(sessions_mutex_);

  core::StreamManager* manager_;
  Config config_;
  std::function<Clock::time_point()> clock_;
  IngestMetrics metrics_;
  mutable slj::Mutex sessions_mutex_;
  /// index = id; null = closed. The shared_ptrs themselves are guarded; a
  /// SessionState's own fields are safe unlocked (atomics + the internally
  /// locked FrameQueue), which is why push() can run outside this mutex.
  std::vector<std::shared_ptr<SessionState>> sessions_ SLJ_GUARDED_BY(sessions_mutex_);
  /// Scratch of drain(), a single-consumer entry point (scheduler thread
  /// only) — deliberately not guarded: it never races itself.
  std::vector<std::shared_ptr<SessionState>> drain_scratch_;
};

}  // namespace slj::ingest
