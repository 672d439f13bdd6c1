#include "core/clip_engine.hpp"

#include <algorithm>
#include <utility>

namespace slj::core {

// ---- WorkerPool ------------------------------------------------------------

WorkerPool::WorkerPool(unsigned workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  // The calling thread participates in every batch, so it counts as one lane.
  const unsigned extra = workers > 1 ? workers - 1 : 0;
  threads_.reserve(extra);
  for (unsigned i = 0; i < extra; ++i) {
    // Lane 0 is the calling thread; workers take lanes 1..extra.
    threads_.emplace_back([this, i] { worker_loop(i + 1); });
  }
}

WorkerPool::~WorkerPool() {
  {
    slj::LockGuard lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run_tasks(const Task& task, std::size_t count, std::size_t lane) {
  for (;;) {
    // slj-atomic: counter — ticket dispenser; each lane claims a unique index
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) return;
    try {
      task(lane, i);
    } catch (...) {
      slj::LockGuard lock(mutex_);
      if (!error_) error_ = std::current_exception();
    }
  }
}

void WorkerPool::worker_loop(std::size_t lane) {
  std::uint64_t seen = 0;
  for (;;) {
    const Task* task = nullptr;
    std::size_t count = 0;
    {
      slj::LockGuard lock(mutex_);
      while (!stop_ && generation_ == seen) wake_.wait(lock);
      if (stop_) return;
      seen = generation_;
      task = task_;
      count = count_;
    }
    run_tasks(*task, count, lane);
    {
      slj::LockGuard lock(mutex_);
      if (--active_ == 0) done_.notify_one();
    }
  }
}

void WorkerPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  parallel_for_lanes(count, [&fn](std::size_t, std::size_t i) { fn(i); });
}

void WorkerPool::parallel_for_lanes(std::size_t count, const Task& fn) {
  if (count == 0) return;
  if (threads_.empty() || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(0, i);
    return;
  }
  {
    slj::LockGuard lock(mutex_);
    task_ = &fn;
    count_ = count;
    next_.store(0, std::memory_order_relaxed);  // slj-atomic: counter
    error_ = nullptr;
    active_ = threads_.size();
    ++generation_;
  }
  wake_.notify_all();
  run_tasks(fn, count, /*lane=*/0);
  std::exception_ptr error;
  {
    slj::LockGuard lock(mutex_);
    while (active_ != 0) done_.wait(lock);
    task_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

// ---- ClipEngine ------------------------------------------------------------

std::vector<std::vector<pose::FeatureCandidate>> ClipObservation::candidate_sets() const {
  std::vector<std::vector<pose::FeatureCandidate>> sets;
  sets.reserve(frames.size());
  for (const FrameObservation& obs : frames) sets.push_back(obs.candidates);
  return sets;
}

ClipEngine::ClipEngine(PipelineParams params, ClipEngineConfig config)
    : params_(params),
      config_(config),
      pool_(config.workers),
      workspaces_(pool_.size() + 1) {}

ClipObservation ClipEngine::aggregate(std::vector<FrameObservation> frames) const {
  ClipObservation clip;
  clip.frames = std::move(frames);
  clip.airborne.reserve(clip.frames.size());
  GroundMonitor ground;
  for (const FrameObservation& obs : clip.frames) {
    const bool flying = ground.airborne(obs.bottom_row);
    clip.airborne.push_back(flying);
    if (flying) ++clip.airborne_frames;
    if (obs.bottom_row < 0) ++clip.empty_frames;
  }
  clip.ground_row = ground.ground_row();
  return clip;
}

ClipObservation ClipEngine::process(const RgbImage& background,
                                    const std::vector<RgbImage>& frames) {
  FramePipeline pipeline(params_);
  pipeline.set_background(background);
  std::vector<FrameObservation> observations(frames.size());
  pool_.parallel_for_lanes(frames.size(), [&](std::size_t lane, std::size_t i) {
    pipeline.process_into(frames[i], workspaces_[lane], observations[i]);
  });
  return aggregate(std::move(observations));
}

ClipObservation ClipEngine::process(const synth::Clip& clip) {
  return process(clip.background, clip.frames);
}

}  // namespace slj::core
