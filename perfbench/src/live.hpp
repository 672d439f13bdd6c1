// Open-loop camera traffic against IngestService, shared by the two live
// workloads and by the traced run.
#pragma once

#include <cstdint>

#include "harness.hpp"

namespace slj::perfbench {

/// Frame rate of every camera session.
inline constexpr double kCameraFps = 60.0;
/// The reference load: 16 concurrent camera sessions.
inline constexpr int kReferenceSessions = 16;

struct LivePlan {
  /// Seeds the order in which sessions pick corpus clips.
  std::uint32_t seed = 1;
  /// Length of the measured window, which follows a 1.5 s ramp-in.
  double seconds = 10.0;
  /// Attach an obs::ServiceMonitor, poll it on a timer and trigger one
  /// incident dump right after the measured window.
  bool recorded = false;
};

/// Runs the plan and reports its metrics (end-to-end and the ingest, obs,
/// replay and load-generator layer metrics) and correctness checks.
void run_live_traffic(const Corpus& corpus, const LivePlan& plan, Report& report);

}  // namespace slj::perfbench
