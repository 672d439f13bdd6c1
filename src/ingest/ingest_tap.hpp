// IngestTap: the observation interface the record/replay layer plugs into
// the ingest plane. The service invokes the tap at the four points that
// fully determine a run — session open, push verdict, tick (drain batch +
// the StreamUpdates it produced) and session close — so a tap can capture a
// live incident as a deterministic trace without the service knowing
// anything about trace files.
//
// Threading: on_push fires on producer threads, concurrently with each
// other and with the scheduler; on_open / on_tick / on_close fire under the
// service's pass mutex. Implementations serialize internally
// (obs::FlightRecorder, the one capture tap, takes one mutex around its
// bookkeeping).
#pragma once

#include <cstdint>
#include <vector>

#include "core/stream_engine.hpp"
#include "ingest/ingest_router.hpp"

namespace slj::ingest {

class IngestTap {
 public:
  virtual ~IngestTap() = default;

  /// A session opened with `config`, calibrated on `background`.
  virtual void on_open(Clock::time_point now, int session, const IngestSessionConfig& config,
                       const RgbImage& background) = 0;

  /// One push attempt resolved. `sequence` is the frame's per-session
  /// admission index when the push was accepted (push_accepted(outcome)),
  /// unspecified otherwise. `frame` is the offered payload either way.
  virtual void on_push(Clock::time_point now, int session, const RgbImage& frame,
                       PushOutcome outcome, std::uint64_t sequence) = 0;

  /// One scheduler round that carried frames: `batch.feeds[i]` advanced its
  /// session with the frame whose provenance is `batch.pending(i)`,
  /// producing `updates[i]`. Only the first `count` entries are live.
  virtual void on_tick(Clock::time_point now, const DrainBatch& batch,
                       const std::vector<core::StreamUpdate>& updates, std::size_t count) = 0;

  /// A session closed (explicitly) or was evicted (idle timeout), after its
  /// final report resolved; `discarded` counts frames dropped un-analysed.
  virtual void on_close(Clock::time_point now, int session, const core::JumpReport& report,
                        std::uint64_t discarded, bool evicted) = 0;
};

}  // namespace slj::ingest
