#include "obs/slo.hpp"

namespace slj::obs {

const char* slo_state_name(SloState state) {
  return state == SloState::kBreach ? "breach" : "ok";
}

bool SloTracker::update_gauge(Gauge& gauge, double value, double budget) {
  if (value > budget) {
    gauge.consecutive_good = 0;
    ++gauge.consecutive_bad;
    if (gauge.state == SloState::kOk && gauge.consecutive_bad >= kSloBreachAfter) {
      gauge.state = SloState::kBreach;
      ++gauge.breaches;
      return true;
    }
    return false;
  }
  gauge.consecutive_bad = 0;
  if (gauge.state == SloState::kBreach) {
    // Clearing needs the hysteresis margin: a value hovering at the budget
    // keeps the breach latched instead of flapping ok/breach/ok.
    if (value <= budget * (1.0 - kSloHysteresis)) {
      ++gauge.consecutive_good;
      if (gauge.consecutive_good >= kSloClearAfter) {
        gauge.state = SloState::kOk;
        gauge.consecutive_good = 0;
      }
    } else {
      gauge.consecutive_good = 0;
    }
  }
  return false;
}

void SloTracker::evaluate(ingest::IngestMetricsSnapshot& snapshot,
                          std::vector<SloIncident>* incidents) {
  for (ingest::SessionMetricsSnapshot& row : snapshot.sessions) {
    if (row.session < 0) continue;
    if (static_cast<std::size_t>(row.session) >= sessions_.size()) {
      sessions_.resize(static_cast<std::size_t>(row.session) + 1);
    }
    SessionSlo& slo = sessions_[static_cast<std::size_t>(row.session)];
    if (!slo.live) {
      // First sighting (or the id of a previously closed session — the
      // router never reuses ids, so this is always a fresh session).
      slo = SessionSlo{};
      slo.live = true;
    }

    if (!config_.tracked()) {
      row.slo_state = "untracked";
      continue;
    }

    if (config_.latency_tracked() && row.delivered > 0) {
      if (update_gauge(slo.latency, row.latency_p99_ms, config_.p99_budget_ms)) {
        total_breaches_ += 1;
        if (incidents != nullptr) {
          incidents->push_back(
              {row.session, "latency", row.latency_p99_ms, config_.p99_budget_ms});
        }
      }
    }

    // Drop gauge: shed fraction of frames pushed since the last evaluate.
    // Intervals with no pushed frames leave the gauge untouched — silence
    // is not evidence either way.
    const std::uint64_t d_pushed = row.pushed - slo.last_pushed;
    const std::uint64_t d_shed = row.dropped_oldest - slo.last_shed;
    if (d_pushed > 0) {
      slo.last_drop_rate = static_cast<double>(d_shed) / static_cast<double>(d_pushed);
      slo.last_pushed = row.pushed;
      slo.last_shed = row.dropped_oldest;
      if (config_.drops_tracked()) {
        if (update_gauge(slo.drops, slo.last_drop_rate, config_.drop_rate_budget)) {
          total_breaches_ += 1;
          if (incidents != nullptr) {
            incidents->push_back(
                {row.session, "drops", slo.last_drop_rate, config_.drop_rate_budget});
          }
        }
      }
    }
    row.drop_rate = slo.last_drop_rate;

    const bool breached =
        slo.latency.state == SloState::kBreach || slo.drops.state == SloState::kBreach;
    row.slo_state = slo_state_name(breached ? SloState::kBreach : SloState::kOk);
    row.slo_breaches = slo.latency.breaches + slo.drops.breaches;
    if (breached) ++snapshot.slo_breached_sessions;
  }
  snapshot.slo_breaches = total_breaches_;
}

}  // namespace slj::obs
