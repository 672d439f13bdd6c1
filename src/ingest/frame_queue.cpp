#include "ingest/frame_queue.hpp"

#include <stdexcept>
#include <utility>

namespace slj::ingest {

FrameQueue::FrameQueue(FrameQueueConfig config) : config_(config), slots_(config.capacity) {
  if (config.capacity == 0) {
    throw std::invalid_argument("FrameQueue: capacity must be >= 1");
  }
}

PushOutcome FrameQueue::push(const RgbImage& frame, Clock::time_point now,
                             std::uint64_t* sequence) {
  slj::LockGuard lock(mutex_);
  if (closed_) return PushOutcome::kClosed;

  PushOutcome outcome = PushOutcome::kAccepted;
  if (size_ == slots_.size()) {
    head_ = (head_ + 1) % slots_.size();
    --size_;
    ++dropped_;
    outcome = PushOutcome::kReplacedOldest;
  }

  PendingFrame& slot = slots_[(head_ + size_) % slots_.size()];
  slot.frame = frame;  // copy; the slot's buffer is reused when it fits
  slot.sequence = next_sequence_++;
  slot.enqueued_at = now;
  ++size_;
  if (sequence != nullptr) *sequence = slot.sequence;
  return outcome;
}

bool FrameQueue::pop_into(PendingFrame& out) {
  slj::LockGuard lock(mutex_);
  if (size_ == 0) return false;
  PendingFrame& slot = slots_[head_];
  std::swap(out.frame, slot.frame);  // recycle buffers both ways
  out.sequence = slot.sequence;
  out.enqueued_at = slot.enqueued_at;
  head_ = (head_ + 1) % slots_.size();
  --size_;
  return true;
}

std::size_t FrameQueue::depth() const {
  slj::LockGuard lock(mutex_);
  return size_;
}

std::uint64_t FrameQueue::admitted() const {
  slj::LockGuard lock(mutex_);
  return next_sequence_;
}

std::uint64_t FrameQueue::dropped() const {
  slj::LockGuard lock(mutex_);
  return dropped_;
}

void FrameQueue::close() {
  slj::LockGuard lock(mutex_);
  closed_ = true;
}

bool FrameQueue::closed() const {
  slj::LockGuard lock(mutex_);
  return closed_;
}

}  // namespace slj::ingest
