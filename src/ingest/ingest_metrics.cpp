#include "ingest/ingest_metrics.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "core/simd.hpp"

namespace slj::ingest {

// ---- LatencyHistogram ------------------------------------------------------

namespace {

/// Bucket index for a latency: 0 for < 1 µs, otherwise 1 + floor(log2(µs)),
/// clamped to the last bucket.
std::size_t bucket_of(std::chrono::nanoseconds latency) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(latency).count();
  if (us <= 0) return 0;
  const std::size_t b = 1 + static_cast<std::size_t>(
                                std::bit_width(static_cast<std::uint64_t>(us)) - 1);
  return std::min(b, LatencyHistogram::kBuckets - 1);
}

/// Upper edge of bucket b in microseconds (lower edge of bucket b+1).
double bucket_upper_us(std::size_t b) {
  if (b == 0) return 1.0;
  return static_cast<double>(std::uint64_t{1} << b);
}

}  // namespace

void LatencyHistogram::record(std::chrono::nanoseconds latency) {
  if (latency.count() < 0) latency = std::chrono::nanoseconds::zero();
  buckets_[bucket_of(latency)].fetch_add(1, std::memory_order_relaxed);  // slj-atomic: counter
  count_.fetch_add(1, std::memory_order_relaxed);  // slj-atomic: counter
  const std::uint64_t ns = static_cast<std::uint64_t>(latency.count());
  // slj-atomic: counter — monotonic-max CAS; a raced retry republishes the winner
  std::uint64_t seen = max_ns_.load(std::memory_order_relaxed);
  // slj-atomic: counter
  while (ns > seen && !max_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
  // slj-atomic: counter — monotonic-min CAS, same retry rule
  seen = min_ns_.load(std::memory_order_relaxed);
  // slj-atomic: counter
  while (ns < seen && !min_ns_.compare_exchange_weak(seen, ns, std::memory_order_relaxed)) {
  }
}

double LatencyHistogram::quantile_ms(double q) const {
  std::array<std::uint64_t, kBuckets> counts;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);  // slj-atomic: snapshot
    total += counts[i];
  }
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total - 1) + 1.0;  // 1-based
  double cumulative = 0.0;
  double us = bucket_upper_us(kBuckets - 1);
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts[i]);
    if (rank <= next) {
      // Interpolate inside the bucket between its edges.
      const double lo = i == 0 ? 0.0 : bucket_upper_us(i - 1);
      const double hi = bucket_upper_us(i);
      const double frac = (rank - cumulative) / static_cast<double>(counts[i]);
      us = lo + frac * (hi - lo);
      break;
    }
    cumulative = next;
  }
  // Interpolation can land outside the samples in its bucket (all samples
  // at 900 µs read back p50 ≈ 771 µs); no quantile may leave the exact
  // recorded [min, max]. The max clamp goes last, so a reader racing the
  // first record() never sees a quantile above the max.
  return std::min(std::max(us / 1000.0, min_ms()), max_ms());
}

// ---- IngestMetrics ---------------------------------------------------------

void IngestMetrics::on_push(PushOutcome outcome) {
  switch (outcome) {
    case PushOutcome::kAccepted:
      pushed_.fetch_add(1, std::memory_order_relaxed);  // slj-atomic: counter
      break;
    case PushOutcome::kReplacedOldest:
      pushed_.fetch_add(1, std::memory_order_relaxed);          // slj-atomic: counter
      dropped_oldest_.fetch_add(1, std::memory_order_relaxed);  // slj-atomic: counter
      break;
    case PushOutcome::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);  // slj-atomic: counter
      break;
    case PushOutcome::kRateLimited:
      rate_limited_.fetch_add(1, std::memory_order_relaxed);  // slj-atomic: counter
      break;
    case PushOutcome::kClosed:
      closed_pushes_.fetch_add(1, std::memory_order_relaxed);  // slj-atomic: counter
      break;
  }
}

void IngestMetrics::on_delivered(std::chrono::nanoseconds latency) {
  delivered_.fetch_add(1, std::memory_order_relaxed);  // slj-atomic: counter
  latency_.record(latency);
}

void IngestMetrics::note_depth(std::size_t depth) {
  // slj-atomic: counter — monotonic-max CAS; a raced retry republishes the winner
  std::size_t seen = depth_peak_.load(std::memory_order_relaxed);
  while (depth > seen &&
         // slj-atomic: counter
         !depth_peak_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
}

IngestMetricsSnapshot IngestMetrics::snapshot_totals() const {
  IngestMetricsSnapshot snap;
  // slj-atomic: counter — each sample gets a unique, ordered sequence number
  snap.sequence = snapshot_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  snap.wall_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::system_clock::now().time_since_epoch())
                     .count();
  snap.pushed = pushed_.load(std::memory_order_relaxed);                  // slj-atomic: snapshot
  snap.delivered = delivered_.load(std::memory_order_relaxed);            // slj-atomic: snapshot
  snap.dropped_oldest = dropped_oldest_.load(std::memory_order_relaxed);  // slj-atomic: snapshot
  snap.rejected = rejected_.load(std::memory_order_relaxed);              // slj-atomic: snapshot
  snap.rate_limited = rate_limited_.load(std::memory_order_relaxed);      // slj-atomic: snapshot
  snap.closed_pushes = closed_pushes_.load(std::memory_order_relaxed);    // slj-atomic: snapshot
  snap.discarded = discarded_.load(std::memory_order_relaxed);            // slj-atomic: snapshot
  snap.ticks = ticks_.load(std::memory_order_relaxed);                    // slj-atomic: snapshot
  snap.evicted_sessions = evicted_.load(std::memory_order_relaxed);       // slj-atomic: snapshot
  snap.queue_depth_peak = depth_peak_.load(std::memory_order_relaxed);    // slj-atomic: snapshot
  snap.latency_p50_ms = latency_.quantile_ms(0.50);
  snap.latency_p99_ms = latency_.quantile_ms(0.99);
  snap.latency_max_ms = latency_.max_ms();
  return snap;
}

// ---- JSON ------------------------------------------------------------------

std::string IngestMetricsSnapshot::to_json() const {
  char buf[768];
  std::string out = "{\n";
  std::snprintf(buf, sizeof(buf), "  \"sequence\": %llu,\n  \"wall_ms\": %lld,\n",
                static_cast<unsigned long long>(sequence), static_cast<long long>(wall_ms));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"pushed\": %llu,\n  \"delivered\": %llu,\n  \"dropped_oldest\": %llu,\n"
                "  \"rejected\": %llu,\n  \"rate_limited\": %llu,\n  \"closed_pushes\": %llu,\n"
                "  \"discarded\": %llu,\n"
                "  \"ticks\": %llu,\n  \"evicted_sessions\": %llu,\n",
                static_cast<unsigned long long>(pushed),
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(dropped_oldest),
                static_cast<unsigned long long>(rejected),
                static_cast<unsigned long long>(rate_limited),
                static_cast<unsigned long long>(closed_pushes),
                static_cast<unsigned long long>(discarded),
                static_cast<unsigned long long>(ticks),
                static_cast<unsigned long long>(evicted_sessions));
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "  \"open_sessions\": %zu,\n  \"queue_depth\": %zu,\n"
                "  \"queue_depth_peak\": %zu,\n  \"latency_p50_ms\": %.3f,\n"
                "  \"latency_p99_ms\": %.3f,\n  \"latency_max_ms\": %.3f,\n"
                "  \"slo_breached_sessions\": %zu,\n  \"slo_breaches\": %llu,\n",
                open_sessions, queue_depth, queue_depth_peak, latency_p50_ms, latency_p99_ms,
                latency_max_ms, slo_breached_sessions,
                static_cast<unsigned long long>(slo_breaches));
  out += buf;
  out += "  \"sessions\": [";
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    const SessionMetricsSnapshot& s = sessions[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"session\": %d, \"policy\": \"%s\", \"pushed\": %llu, "
                  "\"delivered\": %llu, \"dropped_oldest\": %llu, \"rejected\": %llu, "
                  "\"rate_limited\": %llu, \"queue_depth\": %zu, \"throughput_fps\": %.1f, "
                  "\"latency_p50_ms\": %.3f, \"latency_p99_ms\": %.3f, "
                  "\"drop_rate\": %.4f, \"slo_state\": \"%s\", \"slo_breaches\": %llu}",
                  i == 0 ? "" : ",", s.session, s.policy,
                  static_cast<unsigned long long>(s.pushed),
                  static_cast<unsigned long long>(s.delivered),
                  static_cast<unsigned long long>(s.dropped_oldest),
                  static_cast<unsigned long long>(s.rejected),
                  static_cast<unsigned long long>(s.rate_limited), s.queue_depth,
                  s.throughput_fps, s.latency_p50_ms, s.latency_p99_ms, s.drop_rate,
                  s.slo_state, static_cast<unsigned long long>(s.slo_breaches));
    out += buf;
  }
  out += sessions.empty() ? "],\n" : "\n  ],\n";
  std::snprintf(buf, sizeof(buf),
                "  \"simd\": {\"backend\": \"%s\", \"u8_lanes\": %d}\n}",
                simd::backend_name(), simd::u8_lanes());
  out += buf;
  return out;
}

}  // namespace slj::ingest
