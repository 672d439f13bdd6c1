// Per-session SLO tracking over IngestMetrics snapshots.
//
// Two gauges per session, each a small hysteresis state machine:
//
//   latency   the session's lifetime p99 end-to-end latency (from the
//             per-session LatencyHistogram the router snapshots) against
//             p99_budget_ms
//   drops     the shed fraction of frames *pushed since the last
//             evaluation* — the dropped_oldest delta over the pushed
//             delta — against drop_rate_budget
//
// Breach entry takes kSloBreachAfter consecutive over-budget evaluations;
// recovery takes kSloClearAfter consecutive evaluations at or below
// budget * (1 - kSloHysteresis). A value sitting exactly on the budget neither
// enters breach (entry needs value > budget) nor clears one (clearing needs
// the hysteresis margin), so boundary latencies cannot flap the state —
// pinned by tests/test_obs.cpp.
//
// SloTracker::evaluate() decorates the snapshot in place (per-row state and
// breach counters plus plane-wide totals, all serialized by the existing
// IngestMetricsSnapshot::to_json) and reports *newly entered* breaches so a
// caller (obs::ServiceMonitor) can fire one incident per breach edge rather
// than one per poll.
#pragma once

#include <cstdint>
#include <vector>

#include "ingest/ingest_metrics.hpp"

namespace slj::obs {

/// Recovery margin: a breached gauge clears only at or below
/// budget * (1 - kSloHysteresis).
inline constexpr double kSloHysteresis = 0.1;
/// Consecutive over-budget evaluations before a gauge enters breach.
inline constexpr int kSloBreachAfter = 2;
/// Consecutive within-margin evaluations before a breached gauge clears.
inline constexpr int kSloClearAfter = 2;

struct SloConfig {
  /// p99 end-to-end latency budget in ms; <= 0 disables the latency gauge.
  double p99_budget_ms = 0.0;
  /// Budget on the shed fraction of pushed frames per evaluation interval,
  /// in [0, 1]; <= 0 disables the drop gauge.
  double drop_rate_budget = 0.0;

  bool latency_tracked() const { return p99_budget_ms > 0.0; }
  bool drops_tracked() const { return drop_rate_budget > 0.0; }
  bool tracked() const { return latency_tracked() || drops_tracked(); }
};

enum class SloState : std::uint8_t { kOk = 0, kBreach = 1 };

const char* slo_state_name(SloState state);

/// One gauge crossing into breach on this evaluation.
struct SloIncident {
  int session = -1;
  const char* gauge = "";  ///< "latency" or "drops"
  double value = 0.0;
  double budget = 0.0;
};

class SloTracker {
 public:
  explicit SloTracker(SloConfig config = {}) : config_(config) {}

  /// Evaluates one snapshot: updates every session's gauges, writes the SLO
  /// fields of `snapshot` (per-session state/breach counters/drop rate and
  /// the plane totals), and appends newly entered breaches to `incidents`
  /// when non-null. Call from one thread, in snapshot order.
  void evaluate(ingest::IngestMetricsSnapshot& snapshot,
                std::vector<SloIncident>* incidents = nullptr);

  const SloConfig& config() const { return config_; }

  /// Lifetime count of breach entries across all sessions and gauges.
  std::uint64_t total_breaches() const { return total_breaches_; }

 private:
  struct Gauge {
    SloState state = SloState::kOk;
    int consecutive_bad = 0;
    int consecutive_good = 0;
    std::uint64_t breaches = 0;
  };

  struct SessionSlo {
    bool live = false;
    Gauge latency;
    Gauge drops;
    /// Counter values at the previous evaluation, for interval deltas.
    std::uint64_t last_pushed = 0;
    std::uint64_t last_shed = 0;
    double last_drop_rate = 0.0;
  };

  /// Returns true when the gauge newly entered breach.
  static bool update_gauge(Gauge& gauge, double value, double budget);

  SloConfig config_;
  std::vector<SessionSlo> sessions_;  ///< index = session id
  std::uint64_t total_breaches_ = 0;
};

}  // namespace slj::obs
