#include "core/stream_engine.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/tracer.hpp"

namespace slj::core {

// ---- StreamSession ---------------------------------------------------------

StreamSession::StreamSession(const pose::PoseDbnClassifier& classifier,
                             const RgbImage& background, PipelineParams params)
    : pipeline_(params),
      classifier_(&classifier),
      online_state_(classifier.initial_state()),
      width_(background.width()),
      height_(background.height()) {
  require_same_area_count(params, classifier.config());
  pipeline_.set_background(background);
}

StreamUpdate StreamSession::push_frame(const RgbImage& frame) {
  // observation_ / workspace_ are reused frame over frame so the camera
  // steady state allocates no full-frame buffers.
  pipeline_.process_into(frame, workspace_, observation_);
  return push_observation(observation_);
}

StreamUpdate StreamSession::push_observation(const FrameObservation& observation) {
  obs::TraceSpan span("decode");
  StreamUpdate update;
  update.frame_index = frames_++;
  update.airborne = ground_.airborne(observation.bottom_row);
  update.result = classifier_->classify(observation.candidates, update.airborne, online_state_);
  update.resolved = faults_.push(update.result);
  return update;
}

JumpReport StreamSession::finish() {
  faults_.finish();
  return faults_.report();
}

// ---- StreamManager ---------------------------------------------------------

StreamManager::StreamManager(const pose::PoseDbnClassifier& classifier, PipelineParams params,
                             StreamManagerConfig config)
    : classifier_(&classifier), params_(params), pool_(config.workers) {
  require_same_area_count(params, classifier.config());
}

int StreamManager::open_session(const RgbImage& background) {
  sessions_.push_back(std::make_unique<StreamSession>(*classifier_, background, params_));
  tick_stamps_.push_back(0);
  return static_cast<int>(sessions_.size()) - 1;
}

StreamSession& StreamManager::session_at(int id) {
  if (id < 0 || static_cast<std::size_t>(id) >= sessions_.size() ||
      !sessions_[static_cast<std::size_t>(id)]) {
    throw std::invalid_argument("unknown stream session id " + std::to_string(id));
  }
  return *sessions_[static_cast<std::size_t>(id)];
}

StreamUpdate StreamManager::push_frame(int session, const RgbImage& frame) {
  return session_at(session).push_frame(frame);
}

SLJ_HOT_PATH void StreamManager::tick_into(const std::vector<Feed>& feeds, std::vector<StreamUpdate>& updates) {
  // Validate the whole batch before touching any session, so a rejected
  // batch advances nothing (see the class contract). The stamp array makes
  // duplicate detection allocation-free: a session already stamped with the
  // current tick number is listed twice.
  ++tick_serial_;
  for (const Feed& feed : feeds) {
    const StreamSession& session = session_at(feed.session);  // validates the id
    if (!feed.frame) throw std::invalid_argument("tick feed has no frame");
    if (feed.frame->width() != session.width() || feed.frame->height() != session.height()) {
      throw std::invalid_argument("session " + std::to_string(feed.session) +
                                  " was fed a frame whose size differs from its background");
    }
    std::uint64_t& stamp = tick_stamps_[static_cast<std::size_t>(feed.session)];
    if (stamp == tick_serial_) {
      throw std::invalid_argument("session " + std::to_string(feed.session) +
                                  " fed twice in one tick (each session advances at most once "
                                  "per tick)");
    }
    stamp = tick_serial_;
  }
  updates.resize(feeds.size());
  pool_.parallel_for(feeds.size(), [&](std::size_t i) {
    obs::TraceSpan span("frame", feeds[i].session);
    updates[i] = session_at(feeds[i].session).push_frame(*feeds[i].frame);
  });
}

JumpReport StreamManager::close_session(int session) {
  const JumpReport report = session_at(session).finish();
  sessions_[static_cast<std::size_t>(session)].reset();
  return report;
}

std::size_t StreamManager::open_sessions() const {
  std::size_t n = 0;
  for (const auto& s : sessions_) {
    if (s) ++n;
  }
  return n;
}

}  // namespace slj::core
