#include "detection/blob_tracker.hpp"

#include <algorithm>
#include <limits>

namespace slj::detect {

BlobTracker::BlobTracker(TrackerConfig config) : config_(config) {}

bool BlobTracker::is_person_like(const ComponentStats& blob) const {
  const PersonModel& m = config_.person;
  if (blob.area < m.min_area || blob.area > m.max_area) return false;
  const double width = blob.max.x - blob.min.x + 1;
  const double height = blob.max.y - blob.min.y + 1;
  if (height < m.min_height) return false;
  if (width <= 0.0 || height <= 0.0) return false;
  const double aspect = std::max(height / width, width / height);
  return aspect <= m.max_aspect;
}

void BlobTracker::reset() {
  state_ = TrackState::kNone;
  position_ = velocity_ = {};
  hits_ = 0;
  misses_ = 0;
}

TrackResult BlobTracker::update(const BinaryImage& foreground) {
  const Labeling labeling = label_components(foreground);
  TrackResult result;

  // Candidate blobs: person-plausible components.
  std::vector<const ComponentStats*> candidates;
  for (const ComponentStats& c : labeling.components) {
    if (is_person_like(c)) candidates.push_back(&c);
  }

  const PointF predicted = position_ + velocity_;

  const ComponentStats* chosen = nullptr;
  if (state_ == TrackState::kNone) {
    if (config_.start_x_hint >= 0.0) {
      // Acquire at the take-off line: nearest person-plausible blob.
      double best = std::numeric_limits<double>::max();
      for (const ComponentStats* c : candidates) {
        const double d = std::abs(c->centroid.x - config_.start_x_hint);
        if (d < best) {
          best = d;
          chosen = c;
        }
      }
    } else {
      // No hint: start with the biggest person-plausible blob.
      for (const ComponentStats* c : candidates) {
        if (chosen == nullptr || c->area > chosen->area) chosen = c;
      }
    }
  } else {
    // Associate: nearest candidate within the gate of the prediction.
    double best = std::numeric_limits<double>::max();
    for (const ComponentStats* c : candidates) {
      const double d = distance(c->centroid, predicted);
      if (d <= config_.gate_radius && d < best) {
        best = d;
        chosen = c;
      }
    }
  }

  if (chosen != nullptr) {
    const PointF observed = chosen->centroid;
    if (state_ == TrackState::kNone) {
      position_ = observed;
      velocity_ = {};
      hits_ = 1;
      state_ = TrackState::kTentative;
    } else {
      const PointF instant = observed - position_;
      velocity_ = velocity_ * (1.0 - config_.velocity_blend) + instant * config_.velocity_blend;
      position_ = observed;
      ++hits_;
      if (state_ == TrackState::kTentative && hits_ > config_.confirm_after) {
        state_ = TrackState::kConfirmed;
      } else if (state_ == TrackState::kCoasting) {
        state_ = TrackState::kConfirmed;
      }
    }
    misses_ = 0;
    result.measured = true;
    result.blob = *chosen;
    // Extract only the tracked blob's pixels.
    result.mask = BinaryImage(foreground.width(), foreground.height(), 0);
    for (int y = chosen->min.y; y <= chosen->max.y; ++y) {
      for (int x = chosen->min.x; x <= chosen->max.x; ++x) {
        if (labeling.labels.at(x, y) == chosen->label) result.mask.at(x, y) = 1;
      }
    }
  } else {
    // No association this frame.
    if (state_ == TrackState::kConfirmed || state_ == TrackState::kCoasting) {
      ++misses_;
      position_ = predicted;  // coast on the constant-velocity model
      state_ = misses_ > config_.max_misses ? TrackState::kNone : TrackState::kCoasting;
      if (state_ == TrackState::kNone) reset();
    } else {
      reset();
    }
    result.mask = BinaryImage(foreground.width(), foreground.height(), 0);
  }

  result.state = state_;
  result.person_present =
      state_ == TrackState::kConfirmed || state_ == TrackState::kCoasting;
  result.centroid = position_;
  result.velocity = velocity_;
  return result;
}

}  // namespace slj::detect
