// StreamEngine: live, frame-at-a-time analysis. Where ClipEngine scores a
// whole recorded clip after the fact, a StreamSession accepts one frame at
// a time — camera-style — and returns the frame's pose decision plus any
// movement-standard rules that resolved on that frame, so coaching advice
// can be spoken while the jumper is still in the air. Memory is bounded:
// a session keeps only its sequential state (ground calibration, tracker,
// the classifier's sequence state, fault-rule progress), never the frame
// history.
//
// Decoding is the classifier's own per-frame rule, the paper's online point
// estimate, so a session's output is identical to classify_sequence over
// the same clip: going live never changes the answer. The filtering and
// Viterbi decoders (pose/decoders.hpp) are offline ablation decoders, kept
// for A7 and perfbench; no session runs them.
//
// StreamManager multiplexes many concurrent sessions (simulated camera
// feeds) over one WorkerPool: a tick() hands each session its next frame
// and processes them in parallel, which is safe because sessions share
// nothing but the (const) classifier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/annotations.hpp"
#include "core/clip_engine.hpp"
#include "core/faults.hpp"
#include "core/pipeline.hpp"
#include "detection/blob_tracker.hpp"
#include "pose/classifier.hpp"

namespace slj::core {

/// As in ClipEngineConfig, the airborne flag comes from a GroundMonitor
/// with constant knobs, and the classifier reads it through the one
/// pose::StageTracker rule.
struct StreamSessionConfig {
  /// Select the jumper blob with a BlobTracker instead of largest-component.
  bool use_tracker = false;
  detect::TrackerConfig tracker;
};

/// Everything a session reports back for one pushed frame.
struct StreamUpdate {
  std::size_t frame_index = 0;
  bool airborne = false;
  pose::FrameResult result;
  /// Movement-standard rules that resolved on exactly this frame (advice
  /// for failed ones via rule_advice).
  std::vector<ResolvedFault> resolved;
};

/// One live feed: background-calibrated vision pipeline + per-clip
/// sequential state, advanced one frame per push_frame call.
class StreamSession {
 public:
  StreamSession(const pose::PoseDbnClassifier& classifier, const RgbImage& background,
                PipelineParams params = {}, StreamSessionConfig config = {});

  const StreamSessionConfig& config() const { return config_; }
  std::size_t frames_seen() const { return frames_; }

  /// Consumes the next camera frame: vision pass, airborne flag, pose
  /// decision, incremental fault findings.
  StreamUpdate push_frame(const RgbImage& frame);

  /// Same, from an already-computed frame observation (replay, testing,
  /// feeds that share a vision front-end).
  StreamUpdate push_observation(const FrameObservation& observation);

  /// Snapshot of the movement-standard checks over the frames seen so far.
  JumpReport report() const { return faults_.report(); }

  /// Ends the feed: resolves every still-open rule (missing evidence now
  /// means FAIL) and returns the final report.
  JumpReport finish();

 private:
  FramePipeline pipeline_;
  StreamSessionConfig config_;
  const pose::PoseDbnClassifier* classifier_;
  GroundMonitor ground_;
  std::optional<detect::BlobTracker> tracker_;
  pose::PoseDbnClassifier::SequenceState online_state_;
  IncrementalFaultDetector faults_;
  std::size_t frames_ = 0;
  /// Per-session scratch: after the first frame sizes them, push_frame
  /// performs no full-frame heap allocations (camera steady state).
  FrameWorkspace workspace_;
  FrameObservation observation_;
};

struct StreamManagerConfig {
  /// Worker threads for tick(); 0 = hardware concurrency.
  unsigned workers = 0;
  /// Defaults for sessions opened without an explicit config.
  StreamSessionConfig session;
};

/// Multiplexes many concurrent StreamSessions over one WorkerPool.
///
/// Tick contract: a tick advances each *listed* session by exactly one
/// frame. Every Feed must name an open session with a non-null frame, and a
/// session id may appear at most once per batch — a session has one
/// sequential decoder state, so advancing it twice in one parallel tick
/// would race that state and make the frame order ambiguous. The whole
/// batch is validated up front; on any violation tick()/tick_into() throw
/// std::invalid_argument *before any session advances*, so a rejected batch
/// leaves every session exactly where it was.
class StreamManager {
 public:
  /// One frame of one feed inside a tick. `session` must be an open id and
  /// distinct within the batch (each session advances at most once per
  /// tick; see the class contract above).
  struct Feed {
    int session = -1;
    const RgbImage* frame = nullptr;
  };

  explicit StreamManager(const pose::PoseDbnClassifier& classifier, PipelineParams params = {},
                         StreamManagerConfig config = {});

  /// Opens a feed calibrated on `background`; returns its session id.
  int open_session(const RgbImage& background);
  int open_session(const RgbImage& background, StreamSessionConfig config);

  /// Advances one session by one frame (serial path).
  StreamUpdate push_frame(int session, const RgbImage& frame);

  /// Advances every listed session by one frame, in parallel across the
  /// pool. Updates are returned in feed order. Throws std::invalid_argument
  /// on an unknown or duplicated session id or a null frame, before any
  /// session advances.
  std::vector<StreamUpdate> tick(const std::vector<Feed>& feeds);

  /// Drain-batch entry point: same contract as tick(), but updates land in
  /// `updates` (resized to feeds.size()) so a caller ticking every few
  /// milliseconds — the ingest scheduler — reuses the buffer instead of
  /// allocating a results vector per round. Duplicate detection runs on a
  /// per-session stamp, so validation itself is allocation-free.
  SLJ_HOT_PATH void tick_into(const std::vector<Feed>& feeds, std::vector<StreamUpdate>& updates);

  /// Finishes and closes a session, returning its final report.
  JumpReport close_session(int session);

  std::size_t open_sessions() const;

  /// Total concurrent lanes (pool workers + the calling thread).
  unsigned lanes() const { return pool_.size() + 1; }

 private:
  StreamSession& session_at(int id);

  const pose::PoseDbnClassifier* classifier_;
  PipelineParams params_;
  StreamManagerConfig config_;
  WorkerPool pool_;
  std::vector<std::unique_ptr<StreamSession>> sessions_;  ///< index = id; null = closed
  /// Duplicate-feed detection without per-tick allocation: session i was
  /// last listed in tick number tick_stamps_[i]; seeing the current tick
  /// number twice is the "fed twice in one tick" contract violation.
  std::vector<std::uint64_t> tick_stamps_;
  std::uint64_t tick_serial_ = 0;
};

}  // namespace slj::core
