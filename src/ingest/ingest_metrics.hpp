// IngestMetrics: the telemetry plane of the ingest subsystem. Every counter
// is a relaxed atomic and the latency histogram is a fixed array of atomic
// buckets, so producers and the scheduler record without taking any lock —
// the hot path pays a handful of uncontended atomic increments. snapshot()
// folds everything into a plain JSON-serializable struct for dashboards,
// `sljtool serve`, and perfbench's live workloads.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ingest/frame_queue.hpp"

namespace slj::ingest {

/// Latency histogram with power-of-two microsecond buckets: bucket i counts
/// samples in [2^(i-1), 2^i) µs (bucket 0 = sub-microsecond). Quantiles are
/// read back with linear interpolation inside the winning bucket, so p50/p99
/// carry at most one octave of error — plenty for "is the plane keeping up".
/// They are clamped to the exact recorded [min, max], so no quantile falls
/// outside the samples' range.
///
/// Cache-line aligned: the scheduler writes count_/min_ns_/max_ns_ on every
/// delivery, so they must not share a line with the owner's next member
/// (IngestRouter's session mutex, taken on every push). An unaligned layout
/// measured ~18% higher perfbench ingest.push_us_p50 on live_60fps_recorded.
class alignas(64) LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void record(std::chrono::nanoseconds latency);

  /// q in [0, 1]; returns the interpolated quantile in milliseconds, within
  /// [min_ms(), max_ms()] (0 when no samples were recorded).
  double quantile_ms(double q) const;

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);  // slj-atomic: snapshot
  }
  /// Smallest latency recorded (exact; 0 when no samples were recorded).
  double min_ms() const {
    const std::uint64_t ns = min_ns_.load(std::memory_order_relaxed);  // slj-atomic: snapshot
    return ns == kNoSample ? 0.0 : static_cast<double>(ns) / 1e6;
  }
  double max_ms() const {
    return static_cast<double>(
               max_ns_.load(std::memory_order_relaxed)) /  // slj-atomic: snapshot
           1e6;
  }

 private:
  static constexpr std::uint64_t kNoSample = ~std::uint64_t{0};

  std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> min_ns_{kNoSample};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Per-session rows of a metrics snapshot.
struct SessionMetricsSnapshot {
  int session = -1;
  std::uint64_t pushed = 0;        ///< frames admitted into the queue
  std::uint64_t delivered = 0;     ///< frames whose StreamUpdate reached the sink
  std::uint64_t dropped_oldest = 0;
  std::size_t queue_depth = 0;
  double throughput_fps = 0.0;     ///< delivered frames / seconds since open
  double latency_p50_ms = 0.0;     ///< this session's end-to-end latency
  double latency_p99_ms = 0.0;
  /// SLO decoration, filled by obs::SloTracker::evaluate (untouched — and
  /// "untracked" — when no SLO budgets are configured).
  double drop_rate = 0.0;          ///< shed fraction over the last SLO interval
  const char* slo_state = "untracked";  ///< "ok" | "breach" | "untracked"
  std::uint64_t slo_breaches = 0;  ///< lifetime breach entries for this session
};

/// One coherent-enough view of the plane (counters are read individually, so
/// rows can be off by the odd in-flight frame — fine for telemetry).
struct IngestMetricsSnapshot {
  /// Monotonic snapshot sequence number: consumers polling the JSON can
  /// detect reordered or duplicated samples. Bumped by snapshot_totals().
  std::uint64_t sequence = 0;
  /// Wall-clock sample time, milliseconds since the Unix epoch. The only
  /// wall-clock field in the plane — everything else runs on Clock
  /// (steady_clock) — so dashboards can align samples across processes.
  std::int64_t wall_ms = 0;
  std::uint64_t pushed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_oldest = 0;
  std::uint64_t closed_pushes = 0;   ///< pushes refused because the queue closed
  /// Admitted frames discarded un-analysed when their session closed or was
  /// evicted. Accounting invariant once the plane is quiescent:
  /// pushed == delivered + dropped_oldest + discarded.
  std::uint64_t discarded = 0;
  std::uint64_t ticks = 0;           ///< scheduler rounds that carried frames
  std::uint64_t evicted_sessions = 0;
  std::size_t open_sessions = 0;
  std::size_t queue_depth = 0;       ///< total frames queued right now
  /// Deepest any single session's queue has been (sampled on admission, so
  /// a saturated drop-oldest ring reports its capacity).
  std::size_t queue_depth_peak = 0;
  double latency_p50_ms = 0.0;       ///< end-to-end: enqueue -> sink
  double latency_p99_ms = 0.0;
  double latency_max_ms = 0.0;
  /// SLO rollup, filled by obs::SloTracker::evaluate (0 when untracked).
  std::size_t slo_breached_sessions = 0;  ///< sessions currently in breach
  std::uint64_t slo_breaches = 0;         ///< lifetime breach entries, all sessions
  std::vector<SessionMetricsSnapshot> sessions;

  std::string to_json() const;
};

class IngestMetrics {
 public:
  /// Records the fate of one offered frame (producer threads).
  void on_push(PushOutcome outcome);

  /// Records one delivered frame's end-to-end latency (scheduler thread).
  void on_delivered(std::chrono::nanoseconds latency);

  void on_tick() { ticks_.fetch_add(1, std::memory_order_relaxed); }        // slj-atomic: counter
  void on_eviction() { evicted_.fetch_add(1, std::memory_order_relaxed); }  // slj-atomic: counter
  /// Records frames a closing/evicted session dropped un-analysed.
  void on_discarded(std::uint64_t n) {
    discarded_.fetch_add(n, std::memory_order_relaxed);  // slj-atomic: counter
  }

  /// Feeds the monotonic per-session queue-depth peak (the router samples
  /// one session's depth on every admission).
  void note_depth(std::size_t depth);

  /// Totals only; IngestRouter fills open_sessions / queue_depth / rows.
  /// Stamps the snapshot with a monotonic sequence number and the wall
  /// clock, so each call yields a distinguishable, orderable sample.
  IngestMetricsSnapshot snapshot_totals() const;

 private:
  mutable std::atomic<std::uint64_t> snapshot_seq_{0};
  std::atomic<std::uint64_t> pushed_{0};
  std::atomic<std::uint64_t> delivered_{0};
  std::atomic<std::uint64_t> dropped_oldest_{0};
  std::atomic<std::uint64_t> closed_pushes_{0};
  std::atomic<std::uint64_t> discarded_{0};
  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> evicted_{0};
  std::atomic<std::size_t> depth_peak_{0};
  LatencyHistogram latency_;
};

}  // namespace slj::ingest
