#include "ingest/ingest_service.hpp"

#include <utility>

#include "obs/tracer.hpp"

namespace slj::ingest {

IngestService::IngestService(const pose::PoseDbnClassifier& classifier,
                             core::PipelineParams params, IngestServiceConfig config)
    : config_(config),
      manager_(classifier, params, config.manager),
      router_(manager_, config.router) {}

IngestService::~IngestService() { stop(); }

int IngestService::open_session(const RgbImage& background, Sink sink) {
  return open_session(background, config_.router.session, std::move(sink));
}

int IngestService::open_session(const RgbImage& background, IngestSessionConfig config,
                                Sink sink) {
  // pass_mutex_ keeps the manager's session table stable while a tick runs.
  slj::LockGuard pass(pass_mutex_);
  const int id = router_.open(background, config);
  {
    slj::LockGuard lock(sinks_mutex_);
    if (static_cast<std::size_t>(id) >= sinks_.size()) {
      sinks_.resize(static_cast<std::size_t>(id) + 1);
    }
    sinks_[static_cast<std::size_t>(id)] = std::move(sink);
  }
  if (IngestTap* tap = tap_.load(std::memory_order_acquire)) {
    tap->on_open(router_.now(), id, config, background);
  }
  return id;
}

PushOutcome IngestService::push(int session, const RgbImage& frame) {
  // The attempt is counted *before* the queue insert: if admitted_ lagged
  // the physical queue, a concurrent drop-oldest push could credit
  // completed_ for evicting a frame flush() never counted, letting flush
  // return with that pusher's own frame still queued. Refused attempts are
  // immediately balanced with note_completed below.
  admitted_.fetch_add(1, std::memory_order_relaxed);  // slj-atomic: counter
  PushOutcome outcome;
  std::uint64_t sequence = 0;
  try {
    outcome = router_.push(session, frame, &sequence);
  } catch (...) {
    note_completed(1);  // unknown id: balance the attempt, then rethrow
    throw;
  }
  if (IngestTap* tap = tap_.load(std::memory_order_acquire)) {
    tap->on_push(router_.now(), session, frame, outcome, sequence);
  }
  obs::Tracer::instance().instant("ingest.push", session, static_cast<std::int64_t>(outcome));
  if (push_accepted(outcome)) {
    if (outcome == PushOutcome::kReplacedOldest) {
      note_completed(1);  // the replaced frame is discharged, not delivered
    }
    {
      slj::LockGuard lock(wake_mutex_);
      work_pending_ = true;
    }
    wake_cv_.notify_one();
  } else {
    note_completed(1);  // refused: nothing entered the queue
  }
  return outcome;
}

void IngestService::start() {
  if (running_.load(std::memory_order_acquire)) return;
  {
    slj::LockGuard lock(wake_mutex_);
    stop_requested_ = false;
  }
  running_.store(true, std::memory_order_release);
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

void IngestService::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  {
    slj::LockGuard lock(wake_mutex_);
    stop_requested_ = true;
  }
  wake_cv_.notify_all();
  scheduler_.join();
  running_.store(false, std::memory_order_release);
}

void IngestService::scheduler_loop() {
  for (;;) {
    {
      slj::LockGuard lock(wake_mutex_);
      // Deadline loop instead of a predicate wait_for: the guarded flags
      // are re-read here, where the analysis can see wake_mutex_ is held.
      const Clock::time_point deadline = Clock::now() + config_.poll_interval;
      while (!stop_requested_ && !work_pending_) {
        if (wake_cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
      }
      if (stop_requested_) return;
      work_pending_ = false;
    }
    bool more;
    {
      slj::LockGuard pass(pass_mutex_);
      pass_locked();
      // A drain takes at most one frame per session; deeper queues mean the
      // next round is already due.
      more = router_.total_depth() > 0;
    }
    if (more) {
      slj::LockGuard lock(wake_mutex_);
      work_pending_ = true;
    }
  }
}

std::size_t IngestService::pass_locked() {
  obs::TraceSpan pass_span("ingest.pass");
  std::size_t count;
  {
    obs::TraceSpan span("ingest.drain");
    count = router_.drain(batch_);
  }
  if (count > 0) {
    {
      obs::TraceSpan span("ingest.tick", -1, static_cast<std::int64_t>(count));
      manager_.tick_into(batch_.feeds, updates_);
    }
    router_.metrics().on_tick();
    if (IngestTap* tap = tap_.load(std::memory_order_acquire)) {
      tap->on_tick(router_.now(), batch_, updates_, count);
    }
    obs::TraceSpan span("ingest.deliver", -1, static_cast<std::int64_t>(count));
    deliver_locked(count);
    note_completed(count);
  }
  evict_idle_locked();
  return count;
}

void IngestService::deliver_locked(std::size_t count) {
  const Clock::time_point now = router_.now();
  for (std::size_t i = 0; i < count; ++i) {
    const int session = batch_.feeds[i].session;
    const PendingFrame& pending = batch_.pending(i);
    const Clock::duration latency = now - pending.enqueued_at;
    router_.metrics().on_delivered(
        std::chrono::duration_cast<std::chrono::nanoseconds>(latency));
    if (const auto state = router_.state_if_open(session)) {
      state->delivered.fetch_add(1, std::memory_order_relaxed);  // slj-atomic: counter
      state->latency.record(std::chrono::duration_cast<std::chrono::nanoseconds>(latency));
    }
    // Copy the sink out and invoke it unlocked (mirroring the eviction
    // path), so a slow sink never stalls concurrent open_session calls on
    // sinks_mutex_. Note the sink still runs under pass_mutex_ — see the
    // reentrancy warning on IngestService::Sink.
    Sink sink;
    {
      slj::LockGuard lock(sinks_mutex_);
      if (static_cast<std::size_t>(session) < sinks_.size()) {
        sink = sinks_[static_cast<std::size_t>(session)];
      }
    }
    if (sink) {
      const Delivery delivery{session, pending.sequence, latency, updates_[i]};
      sink(delivery);
    }
  }
}

void IngestService::evict_idle_locked() {
  idle_scratch_.clear();
  router_.collect_idle(idle_scratch_);
  for (const int id : idle_scratch_) {
    std::uint64_t discarded = 0;
    const core::JumpReport report = router_.close(id, &discarded);
    if (discarded > 0) note_completed(discarded);
    router_.metrics().on_eviction();
    obs::Tracer::instance().instant("ingest.evict", id,
                                    static_cast<std::int64_t>(discarded));
    if (IngestTap* tap = tap_.load(std::memory_order_acquire)) {
      tap->on_close(router_.now(), id, report, discarded, /*evicted=*/true);
    }
    EvictionSink sink;
    {
      slj::LockGuard lock(sinks_mutex_);
      sink = eviction_sink_;
    }
    if (sink) sink(id, report);
  }
}

void IngestService::note_completed(std::uint64_t n) {
  completed_.fetch_add(n, std::memory_order_relaxed);  // slj-atomic: counter
  // The mutex+notify is only a wakeup hint for flush(), which re-checks the
  // atomic on a 1 ms timeout anyway — skip the lock entirely unless someone
  // is actually flushing, keeping the producer shed path atomic-only.
  if (flush_waiters_.load(std::memory_order_acquire) > 0) {
    {
      slj::LockGuard lock(flush_mutex_);
    }
    flush_cv_.notify_all();
  }
}

void IngestService::flush() {
  const std::uint64_t target = admitted_.load(std::memory_order_relaxed);  // slj-atomic: snapshot
  flush_waiters_.fetch_add(1, std::memory_order_acq_rel);
  // slj-atomic: snapshot — stale reads only delay the 1 ms re-poll below
  while (completed_.load(std::memory_order_relaxed) < target) {
    if (running()) {
      // Plain timed wait: the exit condition is the atomic re-checked by
      // the enclosing while, so a predicate here would be redundant (and
      // the 1 ms timeout already bounds a missed notify).
      slj::LockGuard lock(flush_mutex_);
      if (completed_.load(std::memory_order_relaxed) >= target) break;  // slj-atomic: snapshot
      flush_cv_.wait_for(lock, std::chrono::milliseconds(1));
    } else {
      // Scheduler stopped: run the passes inline on the calling thread.
      slj::LockGuard pass(pass_mutex_);
      pass_locked();
    }
  }
  flush_waiters_.fetch_sub(1, std::memory_order_acq_rel);
}

core::JumpReport IngestService::close_session(int session) {
  router_.seal(session);  // producers get kClosed from here on
  flush();                // deliver everything admitted before the seal
  slj::LockGuard pass(pass_mutex_);
  std::uint64_t discarded = 0;
  const core::JumpReport report = router_.close(session, &discarded);
  if (discarded > 0) note_completed(discarded);
  if (IngestTap* tap = tap_.load(std::memory_order_acquire)) {
    tap->on_close(router_.now(), session, report, discarded, /*evicted=*/false);
  }
  return report;
}

void IngestService::set_eviction_sink(EvictionSink sink) {
  slj::LockGuard lock(sinks_mutex_);
  eviction_sink_ = std::move(sink);
}

}  // namespace slj::ingest
