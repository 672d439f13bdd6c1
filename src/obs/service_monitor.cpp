#include "obs/service_monitor.hpp"

#include <cstdio>

namespace slj::obs {

ServiceMonitor::ServiceMonitor(ingest::IngestService& service, ServiceMonitorConfig config)
    : service_(service), config_(std::move(config)), recorder_(config_.recorder),
      slo_(config_.slo) {
  service_.set_tap(&recorder_);
  Tracer::instance().set_enabled(true);
}

ServiceMonitor::~ServiceMonitor() { service_.set_tap(nullptr); }

ingest::IngestMetricsSnapshot ServiceMonitor::poll() {
  ingest::IngestMetricsSnapshot snapshot = service_.metrics();
  incident_scratch_.clear();
  slo_.evaluate(snapshot, &incident_scratch_);
  for (const SloIncident& incident : incident_scratch_) {
    Tracer::instance().instant("slo.breach", incident.session,
                               static_cast<std::int64_t>(incident.value * 1000.0));
    trigger_incident("slo");
  }
  return snapshot;
}

std::string ServiceMonitor::trigger_incident(const std::string& reason) {
  if (incident_seq_ >= config_.max_incidents) return "";
  char name[128];
  std::snprintf(name, sizeof(name), "/incident_%llu_%s.sljtrace",
                static_cast<unsigned long long>(incident_seq_), reason.c_str());
  const std::string path = config_.incident_dir + name;
  // Flush first so every admitted frame has been delivered or discarded:
  // the dump then balances and carries a summary record, and no push-vs-tick
  // race can truncate a session.
  service_.flush();
  recorder_.dump(path);
  ++incident_seq_;
  incident_paths_.push_back(path);
  return path;
}

}  // namespace slj::obs
