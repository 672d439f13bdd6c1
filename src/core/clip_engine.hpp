// ClipEngine: the one offline path from a recorded clip to observations and
// airborne flags; evaluation, training, the analyzer and sljtool process
// clips through it, one clip per call. The per-frame vision pipeline
// (FramePipeline::process_into) depends only on the frame, the background
// and its own workspace, so the frames of a clip run concurrently on
// per-lane workspaces; only the per-clip sequential state (GroundMonitor
// calibration) is replayed in frame order afterwards. Results are stored by
// frame index, so the output is bit-identical to a serial process_into loop
// regardless of worker count or scheduling. Frames are the only parallelism
// axis: each frame's vision kernels run serially on the lane that owns it.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "core/annotations.hpp"
#include "core/pipeline.hpp"
#include "synth/dataset.hpp"

namespace slj::core {

/// Fixed-size pool of persistent worker threads driving index-space loops.
/// One parallel_for runs at a time (calls are serialized by the caller);
/// the calling thread participates, so a pool of size 1 still uses two lanes.
class WorkerPool {
 public:
  /// `workers` = 0 picks the hardware concurrency (at least 1).
  explicit WorkerPool(unsigned workers = 0);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Worker threads owned by the pool (excluding the calling thread).
  unsigned size() const { return static_cast<unsigned>(threads_.size()); }

  /// Runs fn(i) for every i in [0, count); blocks until all complete.
  /// If a task throws, the first exception is rethrown here after the
  /// whole index space has drained.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn)
      SLJ_EXCLUDES(mutex_);

  /// Lane-aware variant: fn(lane, i), where `lane` identifies the executing
  /// thread (0 = the calling thread, 1..size() = pool workers). Lanes let
  /// tasks address per-thread state — e.g. one FrameWorkspace per lane —
  /// without locking: a lane never runs two tasks concurrently.
  void parallel_for_lanes(std::size_t count,
                          const std::function<void(std::size_t, std::size_t)>& fn)
      SLJ_EXCLUDES(mutex_);

 private:
  using Task = std::function<void(std::size_t, std::size_t)>;

  void worker_loop(std::size_t lane) SLJ_EXCLUDES(mutex_);
  void run_tasks(const Task& task, std::size_t count, std::size_t lane) SLJ_EXCLUDES(mutex_);

  std::vector<std::thread> threads_;
  slj::Mutex mutex_;
  slj::CondVar wake_;
  slj::CondVar done_;
  /// The pointer cell is guarded; the pointee lives on the caller's stack,
  /// read outside the lock by design — parallel_for_lanes() keeps it alive
  /// until every worker has drained the batch.
  const Task* task_ SLJ_GUARDED_BY(mutex_) = nullptr;
  std::size_t count_ SLJ_GUARDED_BY(mutex_) = 0;
  std::atomic<std::size_t> next_{0};
  /// Workers still inside the current batch.
  std::size_t active_ SLJ_GUARDED_BY(mutex_) = 0;
  /// Batch counter workers wake on.
  std::uint64_t generation_ SLJ_GUARDED_BY(mutex_) = 0;
  bool stop_ SLJ_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ SLJ_GUARDED_BY(mutex_);
};

/// The airborne flag comes from a GroundMonitor with a constant lift
/// threshold and calibration window; pose::StageTracker is the one rule
/// that turns it into stage bounds.
struct ClipEngineConfig {
  /// Worker threads; 0 = hardware concurrency.
  unsigned workers = 0;
};

/// Everything the engine derives from one clip: per-frame observations plus
/// the clip-level sequential state replayed over them.
struct ClipObservation {
  std::vector<FrameObservation> frames;
  std::vector<bool> airborne;     ///< GroundMonitor flag per frame
  int ground_row = -1;            ///< calibrated ground line (-1: never seen)
  std::size_t empty_frames = 0;   ///< frames with no silhouette
  std::size_t airborne_frames = 0;

  std::size_t frame_count() const { return frames.size(); }

  /// Per-frame candidate labellings in classifier_sequence() layout.
  std::vector<std::vector<pose::FeatureCandidate>> candidate_sets() const;
};

class ClipEngine {
 public:
  explicit ClipEngine(PipelineParams params = {}, ClipEngineConfig config = {});

  const ClipEngineConfig& config() const { return config_; }
  const PipelineParams& pipeline_params() const { return params_; }

  /// Total concurrent lanes (pool workers + the calling thread).
  unsigned lanes() const { return pool_.size() + 1; }

  /// Processes one raw clip (background plate + frames). Frames run in
  /// parallel.
  ClipObservation process(const RgbImage& background, const std::vector<RgbImage>& frames);

  /// Convenience overload for generated / loaded clips.
  ClipObservation process(const synth::Clip& clip);

 private:
  /// Replays the clip-level sequential state over per-frame results.
  ClipObservation aggregate(std::vector<FrameObservation> frames) const;

  PipelineParams params_;
  ClipEngineConfig config_;
  WorkerPool pool_;
  /// One workspace per lane (pool workers + calling thread); lane l of a
  /// parallel_for_lanes batch owns workspaces_[l] for the batch's duration,
  /// so steady-state frame processing allocates no full-frame buffers.
  std::vector<FrameWorkspace> workspaces_;
};

}  // namespace slj::core
