// ServiceMonitor: wires the three observability pieces onto one live
// IngestService — the FlightRecorder rides as the service's tap, the
// SloTracker scores every metrics poll, and an SLO breach (or an explicit
// caller signal, e.g. `sljtool top` on SIGUSR1) triggers an *incident*: the
// recorder's retained window is atomically dumped as a replayable .sljtrace.
//
// Construction order matters: the monitor installs the tap in its
// constructor, so it must be created BEFORE any session is opened on the
// service — a session whose open record the recorder never saw cannot be
// part of a valid dump (the recorder simply ignores such sessions).
//
// Single-threaded by design: poll() and trigger_incident() must be called
// from one thread (the tool's refresh loop). The recorder underneath is
// fully thread-safe; only the monitor's own bookkeeping is not.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ingest/ingest_service.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/slo.hpp"
#include "obs/tracer.hpp"

namespace slj::obs {

struct ServiceMonitorConfig {
  SloConfig slo;
  FlightRecorderConfig recorder;
  /// Directory incident dumps are written to ("." by default).
  std::string incident_dir = ".";
  /// Hard cap on incident files produced over the monitor's lifetime; 0
  /// disables incident dumping (SLO state is still tracked and exported).
  std::size_t max_incidents = 4;
};

class ServiceMonitor {
 public:
  /// Installs the flight recorder as `service`'s tap and enables the
  /// process-wide tracer. `service` must outlive the monitor and must not
  /// have open sessions yet.
  ServiceMonitor(ingest::IngestService& service, ServiceMonitorConfig config);
  ~ServiceMonitor();

  ServiceMonitor(const ServiceMonitor&) = delete;
  ServiceMonitor& operator=(const ServiceMonitor&) = delete;

  /// Takes one metrics snapshot, scores it against the SLO budgets and
  /// returns it decorated (per-session slo_state / drop_rate / breach
  /// counters). Each gauge newly entering breach emits one "slo.breach"
  /// tracer instant and fires one incident dump.
  ingest::IngestMetricsSnapshot poll();

  /// Forces an incident dump now (e.g. on an operator signal). Returns the
  /// incident file path, or "" when the incident budget is exhausted.
  std::string trigger_incident(const std::string& reason);

  FlightRecorder& recorder() { return recorder_; }
  const SloTracker& slo() const { return slo_; }
  std::uint64_t incidents() const { return incident_seq_; }
  const std::vector<std::string>& incident_paths() const { return incident_paths_; }

 private:
  ingest::IngestService& service_;
  ServiceMonitorConfig config_;
  FlightRecorder recorder_;
  SloTracker slo_;
  std::vector<SloIncident> incident_scratch_;
  std::uint64_t incident_seq_ = 0;
  std::vector<std::string> incident_paths_;
};

}  // namespace slj::obs
