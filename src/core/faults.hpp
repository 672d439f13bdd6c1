// Movement-fault identification against the standing-long-jump standard —
// the "scoring" part the paper's system sketch (Sec. 1) motivates: "With
// the determined poses in all the frames, bad movements can thus be
// identified … advices to the jumper can be given."
//
// Each rule checks that the pose sequence contains the movement the
// standard requires at the right stage; a missing movement produces a
// finding with coaching advice.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "pose/classifier.hpp"
#include "pose/pose_catalog.hpp"

namespace slj::core {

enum class FaultRule {
  kArmBackswing,      ///< arms must swing backward during preparation
  kPreparatoryCrouch, ///< knees must load deeply before take-off
  kArmDriveForward,   ///< arms must drive forward/up through take-off
  kFlightLegCarry,    ///< knees tuck / legs reach forward during flight
  kLandingAbsorption, ///< knees must bend on touchdown
  kCompleteSequence,  ///< all four stages must be present
};

std::string_view rule_name(FaultRule r);
std::string_view rule_advice(FaultRule r);

/// Evidence kept per rule. The cap keeps fault state O(1) — an endless live
/// feed holding a matching pose cannot grow a finding without bound — while
/// leaving every realistic clip's evidence complete.
inline constexpr std::size_t kMaxEvidenceFramesPerRule = 32;

struct FaultFinding {
  FaultRule rule;
  bool passed = false;
  /// Frames (indices into the clip) that satisfied the rule; empty if none,
  /// first kMaxEvidenceFramesPerRule kept.
  std::vector<int> evidence_frames;
};

struct JumpReport {
  std::vector<FaultFinding> findings;
  /// Frames the live plane discarded before analysis (drop-oldest); the
  /// findings were decided without them. Always 0 for a batch report.
  std::uint64_t frames_shed = 0;

  int passed_count() const;
  int total_count() const { return static_cast<int>(findings.size()); }
  bool all_passed() const { return passed_count() == total_count(); }

  /// Human-readable multi-line report with advice for each failed rule.
  std::string to_string() const;
};

/// Evaluates the fault rules over a classified pose sequence.
JumpReport detect_faults(const std::vector<pose::FrameResult>& sequence);

/// A fault finding that resolved live, mid-stream.
struct ResolvedFault {
  FaultFinding finding;
  int frame = -1;  ///< frame whose pose resolved the rule
};

/// Streaming variant of detect_faults: feed classified frames one at a time
/// and learn each rule's outcome as soon as it is decided, instead of after
/// the whole clip. A rule resolves PASS on its first evidence frame and
/// FAIL as soon as the jump has provably moved past the rule's last
/// eligible stage (stages never regress, so e.g. a missing crouch is
/// certain the moment a flight pose appears). If a non-monotone pose
/// stream (ablation classifier configs) delivers evidence after such an
/// early FAIL, the rule re-resolves with a correcting PASS event, so live
/// consumers never end up disagreeing with the report. report() over the
/// frames seen so far is identical to batch detect_faults on the same
/// sequence — detect_faults is in fact this detector replayed.
class IncrementalFaultDetector {
 public:
  IncrementalFaultDetector();

  /// Consumes the next classified frame; returns the rules (with advice
  /// available via rule_advice) that resolved on exactly this frame.
  std::vector<ResolvedFault> push(const pose::FrameResult& frame);

  /// Resolves every still-open rule (end of the clip): unseen evidence now
  /// means FAIL. Returns the findings resolved by this call.
  std::vector<ResolvedFault> finish();

  /// Snapshot report over everything seen so far, in detect_faults order.
  JumpReport report() const;

  std::size_t frames_seen() const { return frames_; }

 private:
  static constexpr int kRuleCount = 6;

  std::array<FaultFinding, kRuleCount> findings_;
  std::array<bool, kRuleCount> resolved_{};
  std::array<bool, pose::kStageCount> stages_seen_{};
  std::size_t frames_ = 0;
  int max_stage_seen_ = -1;  ///< over recognized poses only
};

}  // namespace slj::core
