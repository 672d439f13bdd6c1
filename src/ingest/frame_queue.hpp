// FrameQueue: one bounded multi-producer / single-consumer ring of camera
// frames, feeding one live StreamSession. Producers (camera threads, network
// receivers) push asynchronously at sensor rate; the ingest scheduler pops at
// most one frame per drain, so a queue is the buffer between "frames arrive
// when the camera says so" and "the pool processes them when a lane is free".
//
// Overload has one answer: a push into a full ring discards the stalest
// queued frame and admits the new one. A live coaching feed wants the
// freshest frame, not a growing backlog, and a producer never waits. The
// queue counts what it sheds (dropped()), and the session's JumpReport
// carries that count as frames_shed, so a report says which frames it lacks.
//
// Frame storage is recycled: a push copies pixels into a ring slot whose
// buffer is reused (Image::operator= keeps capacity), and pop_into swaps the
// slot's image with the consumer's scratch image, so the steady state moves
// no heap memory in either direction.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/image.hpp"

namespace slj::ingest {

/// The ingest plane's clock. Tests inject a manual clock through
/// IngestRouter::Config::clock; production uses Clock::now().
using Clock = std::chrono::steady_clock;

/// What a full queue does to the next push. Drop-oldest is the only policy:
/// the enum and FrameQueueConfig::policy stay only because perfbench
/// (perfbench/src/live.cpp) assigns them; ROADMAP item 16's perfbench
/// rewrite deletes both.
enum class BackpressurePolicy {
  kDropOldest,  ///< discard the stalest queued frame, admit the new one
};

/// What happened to a pushed frame. The first two mean the frame entered the
/// queue; kClosed means it was refused.
enum class PushOutcome {
  kAccepted,        ///< enqueued into free space
  kReplacedOldest,  ///< enqueued; the stalest queued frame was discarded
  kClosed,          ///< refused: queue closed (session closing/evicted)
};

/// True when the frame entered the queue (it will eventually be drained).
inline bool push_accepted(PushOutcome outcome) {
  return outcome == PushOutcome::kAccepted || outcome == PushOutcome::kReplacedOldest;
}

struct FrameQueueConfig {
  /// Ring capacity in frames. Small on purpose: a live feed wants fresh
  /// frames, and StreamManager ticks drain one frame per session anyway.
  std::size_t capacity = 8;
  BackpressurePolicy policy = BackpressurePolicy::kDropOldest;  ///< the only policy
};

/// One drained frame plus the provenance the delivery plane needs: the
/// session-local push order and the enqueue time (end-to-end latency).
struct PendingFrame {
  RgbImage frame;
  std::uint64_t sequence = 0;  ///< per-queue admission order, 0-based
  Clock::time_point enqueued_at{};
};

class FrameQueue {
 public:
  explicit FrameQueue(FrameQueueConfig config);

  FrameQueue(const FrameQueue&) = delete;
  FrameQueue& operator=(const FrameQueue&) = delete;

  /// Offers one frame from any producer thread; never waits for space. `now`
  /// is stamped on the admitted frame. When the frame is admitted and
  /// `sequence` is non-null, it receives the frame's queue-assigned
  /// admission index (the trace recorder keys frames by it).
  PushOutcome push(const RgbImage& frame, Clock::time_point now,
                   std::uint64_t* sequence = nullptr) SLJ_EXCLUDES(mutex_);

  /// Pops the oldest queued frame into `out` (swapping image storage both
  /// ways, so a reused `out` makes the steady state allocation-free).
  /// Returns false when the queue is empty. Single consumer.
  bool pop_into(PendingFrame& out) SLJ_EXCLUDES(mutex_);

  /// Frames currently queued.
  std::size_t depth() const SLJ_EXCLUDES(mutex_);

  /// Total frames admitted so far (== the next frame's `sequence`).
  std::uint64_t admitted() const SLJ_EXCLUDES(mutex_);

  /// Queued frames discarded so far to admit a newer one (one per
  /// kReplacedOldest). Final once close() has returned.
  std::uint64_t dropped() const SLJ_EXCLUDES(mutex_);

  /// Closes the queue: every further push returns kClosed. Queued frames
  /// can still be popped.
  void close() SLJ_EXCLUDES(mutex_);
  bool closed() const SLJ_EXCLUDES(mutex_);

  const FrameQueueConfig& config() const { return config_; }

 private:
  FrameQueueConfig config_;
  mutable slj::Mutex mutex_;
  std::vector<PendingFrame> slots_ SLJ_GUARDED_BY(mutex_);  ///< ring storage, buffers recycled
  std::size_t head_ SLJ_GUARDED_BY(mutex_) = 0;  ///< index of the oldest queued frame
  std::size_t size_ SLJ_GUARDED_BY(mutex_) = 0;
  std::uint64_t next_sequence_ SLJ_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ SLJ_GUARDED_BY(mutex_) = 0;
  bool closed_ SLJ_GUARDED_BY(mutex_) = false;
};

}  // namespace slj::ingest
