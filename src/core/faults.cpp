#include "core/faults.hpp"

#include <algorithm>
#include <array>

namespace slj::core {
namespace {

using pose::PoseId;
using pose::Stage;

bool pose_in(PoseId p, std::initializer_list<PoseId> set) {
  return std::find(set.begin(), set.end(), p) != set.end();
}

/// The five movement rules in report order (kCompleteSequence is handled
/// separately: its evidence is stage discovery, not a pose set).
constexpr std::array<FaultRule, 5> kPoseRules = {
    FaultRule::kArmBackswing, FaultRule::kPreparatoryCrouch, FaultRule::kArmDriveForward,
    FaultRule::kFlightLegCarry, FaultRule::kLandingAbsorption};

/// Does this pose count as evidence for the rule?
bool rule_matches(FaultRule rule, PoseId p) {
  switch (rule) {
    case FaultRule::kArmBackswing:
      return pose_in(p, {PoseId::kStandHandsBackward, PoseId::kCrouchHandsBackward,
                         PoseId::kWaistBentHandsBackward, PoseId::kTakeoffHandsBackward});
    case FaultRule::kPreparatoryCrouch:
      return pose_in(p, {PoseId::kCrouchHandsBackward, PoseId::kCrouchHandsForward,
                         PoseId::kTakeoffHandsBackward});
    case FaultRule::kArmDriveForward:
      return pose_in(p, {PoseId::kExtendedHandsForward, PoseId::kExtendedHandsUp,
                         PoseId::kTakeoffLeanForward, PoseId::kAirExtendedHandsForward});
    case FaultRule::kFlightLegCarry:
      return pose_in(p, {PoseId::kAirTuckHandsForward, PoseId::kAirTuckHandsDown,
                         PoseId::kAirLegsReachForward, PoseId::kAirPikeHandsDown});
    case FaultRule::kLandingAbsorption:
      return pose_in(p, {PoseId::kTouchdownKneesBentHandsForward,
                         PoseId::kTouchdownDeepHandsDown, PoseId::kLandedSquatHandsForward});
    case FaultRule::kCompleteSequence:
      return p != PoseId::kUnknown;
  }
  return false;
}

/// Latest stage at which a rule can still gather evidence. Stages never
/// regress, so once a recognized pose lands beyond this stage the rule has
/// provably failed.
int rule_deadline(FaultRule rule) {
  int deadline = 0;
  for (const PoseId p : pose::all_poses()) {
    if (rule_matches(rule, p)) {
      deadline = std::max(deadline, pose::index_of(pose::stage_of(p)));
    }
  }
  return deadline;
}

}  // namespace

std::string_view rule_name(FaultRule r) {
  switch (r) {
    case FaultRule::kArmBackswing: return "arm backswing during preparation";
    case FaultRule::kPreparatoryCrouch: return "deep crouch before take-off";
    case FaultRule::kArmDriveForward: return "forward arm drive at take-off";
    case FaultRule::kFlightLegCarry: return "leg carry (tuck/reach) during flight";
    case FaultRule::kLandingAbsorption: return "knee bend on landing";
    case FaultRule::kCompleteSequence: return "complete four-stage jump";
  }
  return "?";
}

std::string_view rule_advice(FaultRule r) {
  switch (r) {
    case FaultRule::kArmBackswing:
      return "Swing both arms backward while you sink into the crouch; the backswing stores "
             "momentum for the jump.";
    case FaultRule::kPreparatoryCrouch:
      return "Bend your knees to roughly a half squat before take-off; jumping from straight "
             "legs loses most of your power.";
    case FaultRule::kArmDriveForward:
      return "Drive your arms forward and up as you extend; the arm swing should lead the "
             "jump, not trail it.";
    case FaultRule::kFlightLegCarry:
      return "Bring your knees up and reach your legs forward while airborne so your feet land "
             "ahead of your body.";
    case FaultRule::kLandingAbsorption:
      return "Land with bent knees and sink into a squat; landing stiff-legged is unsafe and "
             "shortens the measured jump.";
    case FaultRule::kCompleteSequence:
      return "The clip should show preparation, take-off, flight and landing; re-record the "
             "jump if a stage is missing.";
  }
  return "";
}

JumpReport detect_faults(const std::vector<pose::FrameResult>& sequence) {
  IncrementalFaultDetector detector;
  for (const pose::FrameResult& frame : sequence) detector.push(frame);
  return detector.report();
}

IncrementalFaultDetector::IncrementalFaultDetector() {
  for (std::size_t i = 0; i < kPoseRules.size(); ++i) {
    findings_[i].rule = kPoseRules[i];
  }
  findings_[kPoseRules.size()].rule = FaultRule::kCompleteSequence;
}

std::vector<ResolvedFault> IncrementalFaultDetector::push(const pose::FrameResult& frame) {
  const int frame_index = static_cast<int>(frames_++);
  std::vector<ResolvedFault> events;
  const PoseId p = frame.pose;
  if (p == PoseId::kUnknown) return events;

  const auto resolve = [&](std::size_t i, bool passed) {
    resolved_[i] = true;
    findings_[i].passed = passed;
    events.push_back({findings_[i], frame_index});
  };

  for (std::size_t i = 0; i < kPoseRules.size(); ++i) {
    if (!rule_matches(kPoseRules[i], p)) continue;
    if (findings_[i].evidence_frames.size() < kMaxEvidenceFramesPerRule) {
      findings_[i].evidence_frames.push_back(frame_index);
    }
    // First evidence resolves PASS; evidence after an early FAIL (a pose
    // stream whose stages regress — ablation configs) re-resolves it with a
    // correcting PASS event, so live consumers never disagree with report().
    if (!resolved_[i] || !findings_[i].passed) resolve(i, true);
  }

  // Stage completeness: evidence is the first frame of each stage.
  const int stage = pose::index_of(pose::stage_of(p));
  constexpr std::size_t kComplete = kPoseRules.size();
  if (!stages_seen_[static_cast<std::size_t>(stage)]) {
    stages_seen_[static_cast<std::size_t>(stage)] = true;
    findings_[kComplete].evidence_frames.push_back(frame_index);
    if ((!resolved_[kComplete] || !findings_[kComplete].passed) &&
        std::all_of(stages_seen_.begin(), stages_seen_.end(), [](bool b) { return b; })) {
      resolve(kComplete, true);
    }
  }

  // Stages never regress: a recognized pose beyond a rule's last eligible
  // stage settles every still-open rule whose window has closed.
  max_stage_seen_ = std::max(max_stage_seen_, stage);
  for (std::size_t i = 0; i < kPoseRules.size(); ++i) {
    if (!resolved_[i] && max_stage_seen_ > rule_deadline(kPoseRules[i])) resolve(i, false);
  }
  return events;
}

std::vector<ResolvedFault> IncrementalFaultDetector::finish() {
  std::vector<ResolvedFault> events;
  const JumpReport snapshot = report();
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    if (resolved_[i]) continue;
    resolved_[i] = true;
    findings_[i].passed = snapshot.findings[i].passed;
    events.push_back({snapshot.findings[i], -1});
  }
  return events;
}

JumpReport IncrementalFaultDetector::report() const {
  JumpReport report;
  for (std::size_t i = 0; i < findings_.size(); ++i) {
    FaultFinding finding = findings_[i];
    finding.passed = i < kPoseRules.size()
                         ? !finding.evidence_frames.empty()
                         : std::all_of(stages_seen_.begin(), stages_seen_.end(),
                                       [](bool b) { return b; });
    report.findings.push_back(std::move(finding));
  }
  return report;
}

int JumpReport::passed_count() const {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(), [](const FaultFinding& f) { return f.passed; }));
}

std::string JumpReport::to_string() const {
  std::string out;
  out += "Jump assessment: " + std::to_string(passed_count()) + "/" +
         std::to_string(total_count()) + " checks passed\n";
  for (const FaultFinding& f : findings) {
    out += "  [";
    out += f.passed ? "PASS" : "FAIL";
    out += "] ";
    out += rule_name(f.rule);
    if (f.passed) {
      out += " (frames";
      const std::size_t shown = std::min<std::size_t>(f.evidence_frames.size(), 4);
      for (std::size_t i = 0; i < shown; ++i) {
        out += ' ';
        out += std::to_string(f.evidence_frames[i]);
      }
      if (f.evidence_frames.size() > 4) out += " ...";
      out += ")";
    } else {
      out += "\n         advice: ";
      out += rule_advice(f.rule);
    }
    out += "\n";
  }
  if (frames_shed > 0) {
    out += "  (" + std::to_string(frames_shed) + " frames shed before analysis)\n";
  }
  return out;
}

}  // namespace slj::core
