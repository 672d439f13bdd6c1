// Sequence decoders — offline ablation decoders over the paper's
// frame-by-frame point-estimate rule (Sec. 6 asks for "refinement on the
// DBN"), kept for A7 and perfbench. Neither beats the online rule over the
// seed sweep, so the live path (StreamSession) runs the classifier's own
// rule only:
//
//  * filtering — full forward belief over poses instead of a committed
//    point estimate; the frame's answer is the MAP of the belief, computed
//    one frame at a time by OnlineForwardDecoder below.
//  * Viterbi  — offline max-product decoding of the whole clip, which can
//    revise early frames in the light of later evidence (the cure for the
//    paper's "a misclassified frame will still affect subsequent frames").
//    Per-frame confidence is the forward (filtering) marginal of the path
//    state, not a hard-coded certainty.
//
// All modes share the classifier's learned CPTs and its one flag→stage
// rule, StageTracker (classifier.hpp): stages never regress, air/landing
// are gated by the measured flag, and once flight has ended the stage is
// clamped to landing so a spurious late airborne flag cannot reopen it.
#pragma once

#include <span>
#include <vector>

#include "bayes/forward.hpp"
#include "pose/classifier.hpp"

namespace slj::pose {

enum class SequenceDecoder {
  kOnline,     ///< the paper's rule: per-frame argmax, point-estimate prev
  kFiltering,  ///< forward belief propagation, MAP per frame
  kViterbi,    ///< offline max-product over the whole clip
};

/// Streaming forward (filtering) decoder over the pose chain, built on
/// bayes::ForwardFilter: one push per frame updates the belief in O(poses²)
/// with O(poses) state — no re-decoding of the clip. Log-emissions go
/// through the filter's max-log shift, so long cluttered clips (heavily
/// negative emission scores) cannot underflow the belief to uniform.
/// decode_sequence(kFiltering) is exactly this decoder replayed over the
/// clip.
class OnlineForwardDecoder {
 public:
  explicit OnlineForwardDecoder(const PoseDbnClassifier& classifier);

  /// Consumes one frame (candidate labellings + measured flag) and returns
  /// the MAP pose of the updated belief, with its marginal as posterior.
  FrameResult push(const std::vector<FeatureCandidate>& candidates, bool airborne);

  /// Same update from a precomputed per-pose log-emission row (size
  /// kPoseCount, -inf = impossible; the caller owns the stage-bounds
  /// gating). Lets whole-clip decoders reuse an emission table they
  /// already built instead of recomputing it.
  FrameResult push_emission(std::span<const double> log_emission);

  /// Belief over poses after the last push (prior before any push).
  const std::vector<double>& belief() const { return filter_.belief(); }

  std::size_t frames_seen() const { return frames_; }

  /// Back to the prior / first-frame state.
  void reset();

 private:
  const PoseDbnClassifier* classifier_;
  bayes::ForwardFilter filter_;
  StageTracker stages_;
  std::size_t frames_ = 0;
};

/// Decodes a whole clip with the chosen decoder. `candidates[t]` are frame
/// t's body-part labellings, `airborne[t]` the measured flag.
std::vector<FrameResult> decode_sequence(const PoseDbnClassifier& classifier,
                                         const std::vector<std::vector<FeatureCandidate>>& clip,
                                         const std::vector<bool>& airborne,
                                         SequenceDecoder decoder);

}  // namespace slj::pose
