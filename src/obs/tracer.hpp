// Always-compiled structured event tracer: the repo's one instrumentation
// layer. Spans answer "what happened when" on the timeline, and
// chrome_trace_json() folds the same events into per-stage rollups that
// answer "where did the time go".
//
// Design:
//   * Per-thread ring buffers. Each thread that emits gets its own
//     fixed-capacity ring (registered once, under a mutex, on first emit);
//     after that registration the emit path is lock-free and allocation-free:
//     one relaxed enabled check, two steady_clock reads per span, and a
//     single-writer slot write published with one release store.
//   * Single-writer seqlock-style slots. Only the owning thread writes its
//     ring; readers (snapshot) copy the newest <= kCapacity slots between two
//     acquire loads of the head and discard any slot the writer could have
//     been rewriting during the copy. Slot fields are relaxed atomics so the
//     overlap is defined behavior (and TSan-clean), not a benign-race pun.
//   * Bounded by construction. A ring that wraps overwrites its own oldest
//     events — tracing never backpressures the traced system; snapshot()
//     reports how many events each thread lost.
//
// Runtime posture: compiled in always, *disabled* by default. A disabled
// TraceSpan costs one relaxed load (the "compiled in but idle" overhead the
// perf_tracer bench guards at <3%); `sljtool top` / `trace-export` and
// obs::ServiceMonitor enable it. chrome_trace_json() renders a snapshot as
// a Chrome trace-event / Perfetto-loadable JSON timeline.
//
// Span vocabulary of the live plane (parent -> children):
//
//   ingest.pass              one ingest scheduler round
//   ├── ingest.drain         router drain (queue pops)
//   ├── ingest.tick          StreamManager::tick_into (parallel analysis)
//   │   └── frame            one session's full per-frame work
//   │       ├── vision       FramePipeline::process_into
//   │       │   ├── extract    background subtraction -> silhouette
//   │       │   ├── thin       Zhang-Suen thinning
//   │       │   ├── skelgraph  graph build + loop cut + pruning + key points
//   │       │   └── features   candidate enumeration + bottom row
//   │       └── decode       DBN / forward-filter pose decision + fault rules
//   └── ingest.deliver       per-session sink callbacks
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/annotations.hpp"

namespace slj::obs {

enum class TraceEventKind : std::uint8_t {
  kSpan = 0,     ///< has a duration (Chrome "X" complete event)
  kInstant = 1,  ///< a point in time (Chrome "i" instant event)
};

/// One decoded trace event (the snapshot-side, plain-struct view).
struct TraceEvent {
  std::int64_t t_ns = 0;     ///< steady-clock start (span) / moment (instant)
  std::int64_t dur_ns = 0;   ///< span duration; 0 for instants
  const char* name = "";     ///< static string (never owned)
  std::int64_t arg = 0;      ///< event-specific payload (frame index, count, ...)
  std::int32_t session = -1; ///< ingest session id, -1 = none
  TraceEventKind kind = TraceEventKind::kInstant;
};

/// One thread's bounded event ring. Single writer (the owning thread);
/// any thread may snapshot it concurrently.
class ThreadRing {
 public:
  /// Ring capacity in events; power of two so the index mask is a single
  /// AND. ~4k events x ~56 bytes keeps a ring near 224 KiB per thread.
  static constexpr std::size_t kCapacity = 4096;

  /// Appends one event. Owning thread only.
  void emit(TraceEventKind kind, const char* name, std::int32_t session, std::int64_t arg,
            std::int64_t t_ns, std::int64_t dur_ns);

  /// Copies the newest surviving events (ascending emit order) into `out`.
  /// `emitted` receives the events written since the last Tracer::reset()
  /// (the snapshot floor), so a reset never reads as loss. Events the writer
  /// may have been overwriting during the copy are discarded, so every
  /// returned event is internally consistent.
  void snapshot_into(std::vector<TraceEvent>& out, std::uint64_t& emitted) const;

  std::uint64_t tid() const { return tid_; }

 private:
  friend class Tracer;

  /// Slot fields are individually relaxed atomics: the single writer stores
  /// them plain-speed, and a concurrent reader's loads of a mid-rewrite slot
  /// yield discarded-but-defined values instead of a data race.
  struct Slot {
    std::atomic<std::int64_t> t_ns{0};
    std::atomic<std::int64_t> dur_ns{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::int64_t> arg{0};
    std::atomic<std::int32_t> session{-1};
    std::atomic<std::uint8_t> kind{0};
  };

  std::array<Slot, kCapacity> slots_{};
  /// Events ever emitted; slot (head_ % kCapacity) is written *before* the
  /// incremented head is release-published, seqlock-style.
  std::atomic<std::uint64_t> head_{0};
  /// Snapshot floor: events below it are ignored (set by Tracer::reset(),
  /// which must not rewind head_ under the single-writer protocol).
  std::atomic<std::uint64_t> floor_{0};
  std::uint64_t tid_ = 0;  ///< stable 1-based registration index
};

/// One thread's slice of a tracer snapshot.
struct TracerThreadSnapshot {
  std::uint64_t tid = 0;
  std::uint64_t emitted = 0;  ///< events written since the last reset()
  std::uint64_t dropped = 0;  ///< emitted - kept: overwritten by ring wrap
  std::vector<TraceEvent> events;
};

struct TracerSnapshot {
  bool enabled = false;
  std::uint64_t total_events = 0;  ///< kept events across all threads
  std::uint64_t total_dropped = 0;
  std::vector<TracerThreadSnapshot> threads;
};

/// Process-global tracer. All emit paths funnel through the calling thread's
/// own ThreadRing; registration (first emit per thread) takes the registry
/// mutex once and allocates the ring — the only allocation the tracer ever
/// performs.
class Tracer {
 public:
  static Tracer& instance();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);  // slj-atomic: flag
  }
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);  // slj-atomic: flag
  }

  /// Appends an instant event (no-op when disabled).
  void instant(const char* name, std::int32_t session = -1, std::int64_t arg = 0);

  /// Appends a completed span that started at `start` and ends now.
  /// Called by ~TraceSpan, which already checked enabled() at construction.
  void end_span(const char* name, std::int32_t session, std::int64_t arg,
                std::chrono::steady_clock::time_point start);

  /// Coherent-per-thread copy of every ring (threads keep emitting; each
  /// ring is internally consistent, cross-thread skew is inherent).
  TracerSnapshot snapshot() const SLJ_EXCLUDES(registry_mutex_);

  /// Hides all events emitted so far from future snapshots (benches/tests
  /// between phases). Rings are not freed and heads never rewind, so this
  /// is safe concurrently with active writers.
  void reset() SLJ_EXCLUDES(registry_mutex_);

 private:
  Tracer() = default;

  ThreadRing& ring();  ///< this thread's ring, registering it on first use
  ThreadRing* register_thread() SLJ_EXCLUDES(registry_mutex_);

  std::atomic<bool> enabled_{false};
  mutable slj::Mutex registry_mutex_;
  /// Rings live for the process lifetime (threads may exit before a final
  /// snapshot is taken), bounded by the number of distinct emitting threads.
  std::vector<std::unique_ptr<ThreadRing>> rings_ SLJ_GUARDED_BY(registry_mutex_);
};

/// RAII span: construction -> destruction becomes one kSpan event when the
/// tracer is enabled at construction time. Safe (one relaxed load, nothing
/// else) on SLJ_HOT_PATH code when disabled.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::int32_t session = -1, std::int64_t arg = 0)
      : name_(name), arg_(arg), session_(session), armed_(Tracer::instance().enabled()) {
    if (armed_) start_ = std::chrono::steady_clock::now();
  }

  ~TraceSpan() {
    if (armed_) Tracer::instance().end_span(name_, session_, arg_, start_);
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::int64_t arg_;
  std::int32_t session_;
  bool armed_;
  std::chrono::steady_clock::time_point start_{};
};

/// Renders a snapshot as Chrome trace-event JSON ({"traceEvents": [...]}),
/// loadable by chrome://tracing and Perfetto. Timestamps are re-anchored to
/// the earliest kept event. A top-level "stages" array rolls the kept spans
/// up per name (calls, total_ms, avg_us, max_us; instants excluded), so one
/// artifact carries both the timeline and the per-stage breakdown.
std::string chrome_trace_json(const TracerSnapshot& snapshot);

}  // namespace slj::obs
