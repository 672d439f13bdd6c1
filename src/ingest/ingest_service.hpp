// IngestService: the push-based front door of the live analysis system. It
// owns the whole plane — StreamManager (sessions + worker pool), IngestRouter
// (bounded per-session queues) and a scheduler thread that loops
//
//     drain (<=1 frame/session)  ->  tick (parallel vision+decode)
//       ->  deliver (per-session sinks, in frame order)  ->  evict idle
//
// so producers only ever see push(session, frame) and a callback firing with
// the frame's StreamUpdate. Delivery is serialized per session on the
// scheduler thread, so sinks observe updates in exactly the order frames
// were admitted.
//
// Lifecycle:
//   start()  spawns the scheduler; idempotent.
//   stop()   halts it; queued frames stay queued and can be flushed later.
//   flush()  blocks until every frame admitted before the call has been
//            delivered or discarded (works with the scheduler running or
//            stopped — when stopped it runs the passes inline).
//   close_session() flushes, then finishes the session and returns its final
//            JumpReport, whose frames_shed counts the frames drop-oldest
//            discarded (an idle eviction reports the same way).
// The destructor stops the scheduler; undelivered frames are discarded.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "core/stream_engine.hpp"
#include "ingest/ingest_router.hpp"
#include "ingest/ingest_tap.hpp"

namespace slj::ingest {

struct IngestServiceConfig {
  /// Worker pool of the owned StreamManager.
  core::StreamManagerConfig manager;
  /// Queue defaults + test clock of the owned router.
  IngestRouter::Config router;
  /// Scheduler wake period when no push arrives: bounds idle-eviction lag.
  Clock::duration poll_interval = std::chrono::milliseconds(2);
};

/// One delivered frame, handed to the session's sink on the scheduler
/// thread. `update` references the service's reusable tick buffer — copy
/// what must outlive the callback.
struct Delivery {
  int session = -1;
  std::uint64_t sequence = 0;      ///< session-local admission order
  Clock::duration latency{};       ///< enqueue -> sink
  const core::StreamUpdate& update;
};

class IngestService {
 public:
  /// Sinks run on the scheduler thread *inside* a pass (pass_mutex_ held):
  /// they must not call back into the service's lifecycle API
  /// (open_session / close_session / flush / stop) — that relocks the pass
  /// mutex on the same thread and deadlocks the scheduler. push() and
  /// metrics() are safe. Defer lifecycle reactions to another thread.
  using Sink = std::function<void(const Delivery&)>;
  /// Fired (on the scheduler thread) when an idle session is evicted.
  /// Same reentrancy rule as Sink.
  using EvictionSink = std::function<void(int session, const core::JumpReport&)>;

  explicit IngestService(const pose::PoseDbnClassifier& classifier,
                         core::PipelineParams params = {}, IngestServiceConfig config = {});
  ~IngestService();

  IngestService(const IngestService&) = delete;
  IngestService& operator=(const IngestService&) = delete;

  /// Opens a live feed; `sink` (may be null) receives every StreamUpdate of
  /// this session, in admission order, on the scheduler thread.
  int open_session(const RgbImage& background, Sink sink = nullptr)
      SLJ_EXCLUDES(pass_mutex_, sinks_mutex_);
  int open_session(const RgbImage& background, IngestSessionConfig config, Sink sink = nullptr)
      SLJ_EXCLUDES(pass_mutex_, sinks_mutex_);

  /// Offers one frame from any producer thread; returns the queue's verdict.
  PushOutcome push(int session, const RgbImage& frame)
      SLJ_EXCLUDES(wake_mutex_, flush_mutex_);

  void start() SLJ_EXCLUDES(wake_mutex_);
  void stop() SLJ_EXCLUDES(wake_mutex_);
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Blocks until every frame admitted before the call is delivered or
  /// discarded. With the scheduler stopped, processes inline instead.
  void flush() SLJ_EXCLUDES(flush_mutex_, pass_mutex_);

  /// Seals the session (producers get kClosed), delivers everything still
  /// queued for it, then closes it and returns the final report.
  core::JumpReport close_session(int session) SLJ_EXCLUDES(pass_mutex_);

  void set_eviction_sink(EvictionSink sink) SLJ_EXCLUDES(sinks_mutex_);

  /// Installs (or clears, with null) the record/replay tap. Install before
  /// traffic starts: the pointer itself is swapped atomically, but a tap
  /// installed mid-run would see a torn prefix of the run — open records
  /// missing for already-open sessions — which the replayer rejects.
  void set_tap(IngestTap* tap) { tap_.store(tap, std::memory_order_release); }

  std::size_t open_sessions() const { return router_.open_sessions(); }
  IngestMetricsSnapshot metrics() { return router_.snapshot(); }
  IngestRouter& router() { return router_; }
  core::StreamManager& manager() { return manager_; }

 private:
  /// One drain->tick->deliver->evict round. Caller holds pass_mutex_.
  /// Returns the number of frames delivered.
  std::size_t pass_locked() SLJ_REQUIRES(pass_mutex_);
  void deliver_locked(std::size_t count) SLJ_REQUIRES(pass_mutex_) SLJ_EXCLUDES(sinks_mutex_);
  void evict_idle_locked() SLJ_REQUIRES(pass_mutex_) SLJ_EXCLUDES(sinks_mutex_);
  void scheduler_loop() SLJ_EXCLUDES(wake_mutex_, pass_mutex_);
  void note_completed(std::uint64_t n) SLJ_EXCLUDES(flush_mutex_);

  IngestServiceConfig config_;
  /// Structurally serialized by pass_mutex_ (every tick/open/close runs
  /// under it); not SLJ_GUARDED_BY so the manager() accessor stays usable —
  /// the pass mutex is about *passes*, not about reading the reference.
  core::StreamManager manager_;
  IngestRouter router_;

  /// Serializes everything that touches the StreamManager: scheduler passes,
  /// inline flush passes, open/close. Producers never take it.
  slj::Mutex pass_mutex_;
  DrainBatch batch_ SLJ_GUARDED_BY(pass_mutex_);
  std::vector<core::StreamUpdate> updates_ SLJ_GUARDED_BY(pass_mutex_);
  std::vector<int> idle_scratch_ SLJ_GUARDED_BY(pass_mutex_);

  /// Sinks by session id (set at open, read by the scheduler).
  slj::Mutex sinks_mutex_;
  std::vector<Sink> sinks_ SLJ_GUARDED_BY(sinks_mutex_);
  EvictionSink eviction_sink_ SLJ_GUARDED_BY(sinks_mutex_);

  /// Record/replay tap; null when not recording. Producer threads read it
  /// with acquire loads on every push.
  std::atomic<IngestTap*> tap_{nullptr};

  /// Flush accounting: admitted counts push *attempts* (bumped before the
  /// queue insert, so it can never lag the physical queue state), completed
  /// counts attempts discharged — delivered, discarded (drop-oldest,
  /// eviction, close) or refused outright. Invariant: completed + (frames
  /// still queued) == admitted once in-flight pushes return.
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<int> flush_waiters_{0};
  /// flush_mutex_ guards no state: it only sequences the wakeup hint in
  /// note_completed against flush()'s timed wait on the atomics.
  slj::Mutex flush_mutex_;
  slj::CondVar flush_cv_;

  std::thread scheduler_;
  std::atomic<bool> running_{false};
  slj::Mutex wake_mutex_;
  slj::CondVar wake_cv_;
  bool stop_requested_ SLJ_GUARDED_BY(wake_mutex_) = false;
  bool work_pending_ SLJ_GUARDED_BY(wake_mutex_) = false;
};

}  // namespace slj::ingest
