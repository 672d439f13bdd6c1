// Human detection and tracking — the first of the paper's three system
// components ("(1) human detection, (2) pose estimation, (3) scoring",
// Sec. 1). The paper's object-extraction reference [5] ("Tracking Moving
// Targets") is a blob tracker; this module implements that role: follow the
// jumper's blob across frames with a constant-velocity prediction, gate out
// distractor blobs (a second person at the edge, lighting flicker), and
// report when a valid jumper is present at all.
//
// The tracker consumes the per-frame foreground mask (any extractor) and
// outputs the jumper's blob mask. It is not part of libslj, and no engine
// runs it: with its defaults it picked the extractor's largest component on
// every seeded frame measured, so that is the engines' one jumper rule. The
// paper bench's D1 table measures the tracker against that rule under a
// distractor.
#pragma once

#include <optional>
#include <vector>

#include "imaging/connected.hpp"
#include "imaging/image.hpp"

namespace slj::detect {

/// Person-plausibility limits for a candidate blob, in pixels.
struct PersonModel {
  std::size_t min_area = 250;
  std::size_t max_area = 1 << 20;
  double min_height = 25.0;
  double max_aspect = 7.0;   ///< height/width and width/height both below this
};

struct TrackerConfig {
  PersonModel person;
  /// Maximum distance between predicted and observed centroid for a blob to
  /// be associated with the track.
  double gate_radius = 45.0;
  /// Frames a tentative track must persist before it is confirmed.
  int confirm_after = 2;
  /// Missed frames before a confirmed track is dropped.
  int max_misses = 5;
  /// Blend factor for the velocity estimate (0 = frozen, 1 = instantaneous).
  double velocity_blend = 0.5;
  /// Take-off-line hint: a standing-long-jump station has a fixed start
  /// mark, so acquisition prefers the person-like blob nearest this image-x
  /// (negative = no hint; fall back to the largest blob).
  double start_x_hint = -1.0;
};

enum class TrackState { kNone, kTentative, kConfirmed, kCoasting };

/// Per-frame tracker output.
struct TrackResult {
  TrackState state = TrackState::kNone;
  bool person_present = false;   ///< confirmed (or coasting) this frame
  PointF centroid;               ///< measured, or predicted while coasting
  PointF velocity;               ///< px/frame
  ComponentStats blob;           ///< the associated blob (valid when measured)
  bool measured = false;         ///< a blob was associated this frame
  BinaryImage mask;              ///< the tracked blob only (empty if none)
};

class BlobTracker {
 public:
  explicit BlobTracker(TrackerConfig config = {});

  const TrackerConfig& config() const { return config_; }

  /// Feeds one frame's foreground mask; returns the tracked person blob.
  TrackResult update(const BinaryImage& foreground);

  /// Drops the current track.
  void reset();

  TrackState state() const { return state_; }

  /// True when a blob passes the person-plausibility checks.
  bool is_person_like(const ComponentStats& blob) const;

 private:
  TrackerConfig config_;
  TrackState state_ = TrackState::kNone;
  PointF position_{};
  PointF velocity_{};
  int hits_ = 0;
  int misses_ = 0;
};

}  // namespace slj::detect
