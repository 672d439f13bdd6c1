#include "ingest/ingest_router.hpp"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace slj::ingest {

IngestRouter::IngestRouter(core::StreamManager& manager, Config config)
    : manager_(&manager), config_(std::move(config)) {
  clock_ = config_.clock ? config_.clock : [] { return Clock::now(); };
}

int IngestRouter::open(const RgbImage& background) { return open(background, config_.session); }

int IngestRouter::open(const RgbImage& background, IngestSessionConfig config) {
  slj::LockGuard lock(sessions_mutex_);
  const int id = manager_->open_session(background);
  if (static_cast<std::size_t>(id) >= sessions_.size()) {
    sessions_.resize(static_cast<std::size_t>(id) + 1);
  }
  sessions_[static_cast<std::size_t>(id)] =
      std::make_shared<SessionState>(id, background, config, clock_());
  return id;
}

std::shared_ptr<IngestRouter::SessionState> IngestRouter::state_at(int session) const {
  std::shared_ptr<SessionState> state = state_if_open(session);
  if (!state) {
    throw std::invalid_argument("ingest session " + std::to_string(session) + " is closed");
  }
  return state;
}

std::shared_ptr<IngestRouter::SessionState> IngestRouter::state_if_open(int session) const {
  slj::LockGuard lock(sessions_mutex_);
  if (session < 0 || static_cast<std::size_t>(session) >= sessions_.size()) {
    throw std::invalid_argument("unknown ingest session id " + std::to_string(session));
  }
  return sessions_[static_cast<std::size_t>(session)];
}

PushOutcome IngestRouter::push(int session, const RgbImage& frame, std::uint64_t* sequence) {
  const std::shared_ptr<SessionState> state = state_if_open(session);
  if (!state) return PushOutcome::kClosed;  // closed sessions refuse quietly
  // A frame the session's extractor cannot take would throw on the
  // scheduler thread; refuse it here, on the producer's.
  if (frame.width() != state->width || frame.height() != state->height) {
    throw std::invalid_argument("ingest session " + std::to_string(session) + " takes " +
                                std::to_string(state->width) + "x" +
                                std::to_string(state->height) + " frames, got " +
                                std::to_string(frame.width()) + "x" +
                                std::to_string(frame.height()));
  }

  const Clock::time_point now = clock_();
  // Any push attempt counts as producer activity: a camera that is being
  // shed is alive, only a silent one is idle.
  state->last_activity.store(now.time_since_epoch().count(),
                             std::memory_order_relaxed);  // slj-atomic: snapshot

  const PushOutcome outcome = state->queue.push(frame, now, sequence);
  // An admission samples the depth gauge; a replace means the ring is at
  // capacity, so a saturated plane reports its capacity as the peak.
  if (push_accepted(outcome)) metrics_.note_depth(state->queue.depth());
  metrics_.on_push(outcome);
  return outcome;
}

std::size_t IngestRouter::drain(DrainBatch& batch) {
  // Snapshot the open sessions, then pop outside the sessions lock so
  // producers are never blocked behind a whole drain round.
  drain_scratch_.clear();
  {
    slj::LockGuard lock(sessions_mutex_);
    for (const std::shared_ptr<SessionState>& s : sessions_) {
      if (s) drain_scratch_.push_back(s);
    }
  }

  batch.feeds.clear();
  std::size_t used = 0;
  for (const std::shared_ptr<SessionState>& s : drain_scratch_) {
    if (batch.frames.size() <= used) batch.frames.resize(used + 1);
    if (s->queue.pop_into(batch.frames[used])) {
      batch.feeds.push_back({s->id, nullptr});
      ++used;
    }
  }
  // Frame pointers are taken only after all pops: batch.frames no longer
  // reallocates, so the addresses stay stable through the tick.
  for (std::size_t i = 0; i < used; ++i) {
    batch.feeds[i].frame = &batch.frames[i].frame;
  }
  return used;
}

void IngestRouter::collect_idle(std::vector<int>& out) {
  const Clock::time_point now = clock_();
  slj::LockGuard lock(sessions_mutex_);
  for (const std::shared_ptr<SessionState>& s : sessions_) {
    if (!s || s->config.idle_timeout <= Clock::duration::zero()) continue;
    if (s->queue.closed()) continue;      // sealed: an explicit close is in flight
    if (s->queue.depth() != 0) continue;  // pending frames: not idle, drain first
    const Clock::time_point last{Clock::duration{
        s->last_activity.load(std::memory_order_relaxed)}};  // slj-atomic: snapshot
    if (now - last > s->config.idle_timeout) out.push_back(s->id);
  }
}

void IngestRouter::seal(int session) { state_at(session)->queue.close(); }

core::JumpReport IngestRouter::close(int session, std::uint64_t* discarded) {
  std::shared_ptr<SessionState> state;
  {
    slj::LockGuard lock(sessions_mutex_);
    if (session < 0 || static_cast<std::size_t>(session) >= sessions_.size() ||
        !sessions_[static_cast<std::size_t>(session)]) {
      throw std::invalid_argument("unknown ingest session id " + std::to_string(session));
    }
    state = std::move(sessions_[static_cast<std::size_t>(session)]);
    sessions_[static_cast<std::size_t>(session)].reset();
  }
  state->queue.close();
  // Drop whatever is still queued; callers wanting lossless shutdown flush
  // through IngestService first. The discards are metered so the plane's
  // books still balance: pushed == delivered + dropped_oldest + discarded.
  PendingFrame sink;
  std::uint64_t dropped = 0;
  while (state->queue.pop_into(sink)) ++dropped;
  if (dropped > 0) metrics_.on_discarded(dropped);
  if (discarded != nullptr) *discarded = dropped;
  core::JumpReport report = manager_->close_session(session);
  // The queue is closed, so its shed count is final.
  report.frames_shed = state->queue.dropped();
  return report;
}

std::size_t IngestRouter::open_sessions() const {
  slj::LockGuard lock(sessions_mutex_);
  std::size_t n = 0;
  for (const std::shared_ptr<SessionState>& s : sessions_) {
    if (s) ++n;
  }
  return n;
}

std::size_t IngestRouter::total_depth() const {
  slj::LockGuard lock(sessions_mutex_);
  std::size_t depth = 0;
  for (const std::shared_ptr<SessionState>& s : sessions_) {
    if (s) depth += s->queue.depth();
  }
  return depth;
}

std::size_t IngestRouter::depth(int session) const { return state_at(session)->queue.depth(); }

std::uint64_t IngestRouter::admitted(int session) const {
  return state_at(session)->queue.admitted();
}

IngestMetricsSnapshot IngestRouter::snapshot() {
  IngestMetricsSnapshot snap = metrics_.snapshot_totals();
  const Clock::time_point now = clock_();
  slj::LockGuard lock(sessions_mutex_);
  for (const std::shared_ptr<SessionState>& s : sessions_) {
    if (!s) continue;
    ++snap.open_sessions;
    SessionMetricsSnapshot row;
    row.session = s->id;
    row.pushed = s->queue.admitted();
    row.delivered = s->delivered.load(std::memory_order_relaxed);  // slj-atomic: snapshot
    row.dropped_oldest = s->queue.dropped();
    row.queue_depth = s->queue.depth();
    const double seconds = std::chrono::duration<double>(now - s->opened_at).count();
    row.throughput_fps = seconds > 0.0 ? static_cast<double>(row.delivered) / seconds : 0.0;
    row.latency_p50_ms = s->latency.quantile_ms(0.50);
    row.latency_p99_ms = s->latency.quantile_ms(0.99);
    snap.queue_depth += row.queue_depth;
    snap.sessions.push_back(row);
  }
  return snap;
}

}  // namespace slj::ingest
