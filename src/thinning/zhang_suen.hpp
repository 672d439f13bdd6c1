// Zhang–Suen thinning — the paper's "Z-S algorithm" (Sec. 3, ref [6]).
//
// The classic two-sub-iteration peeling scheme: a border pixel P1 is deleted
// when
//   (a) 2 <= B(P1) <= 6            (B = count of foreground 8-neighbours)
//   (b) A(P1) == 1                 (A = 0→1 transitions in P2..P9,P2 order)
//   (c1) P2·P4·P6 == 0 and (d1) P4·P6·P8 == 0   — sub-iteration 1
//   (c2) P2·P4·P8 == 0 and (d2) P2·P6·P8 == 0   — sub-iteration 2
// Sub-iterations alternate until no pixel is deleted. The result is an
// 8-connected, one-pixel-wide skeleton that, as the paper notes, avoids the
// break-line problem but can leave loops, corners and redundant branches
// (handled by skelgraph).
#pragma once

#include "core/annotations.hpp"
#include "imaging/frame_workspace.hpp"
#include "imaging/image.hpp"

namespace slj::thin {

struct ThinningStats {
  int iterations = 0;        ///< full passes (pairs of sub-iterations)
  std::size_t removed = 0;   ///< pixels peeled in total
};

/// Thins `img` (0/1 mask) into a one-pixel-wide skeleton in `out`, using the
/// workspace's frontier scratch; `stats`, when given, receives iteration
/// telemetry for the perf benches. Two optimisations over the textbook
/// full-image sweep (tests/reference/), neither changing a single output bit
/// (the parity suite pins this):
///  - interior pixels read their 3×3 ring with direct row-pointer loads
///    instead of at_or bounds checks (only the one-pixel border pays them);
///  - after the first full pass, a sub-iteration only revisits pixels whose
///    3×3 neighbourhood was touched by a deletion since that pixel was last
///    evaluated for that sub-iteration type. Any other pixel provably keeps
///    its previous (non-deletable) answer, so later passes cost O(frontier)
///    instead of O(W·H).
/// `out` must not alias `img`. Stats match the full-sweep reference exactly.
SLJ_HOT_PATH void zhang_suen_thin_into(const BinaryImage& img, FrameWorkspace& ws, BinaryImage& out,
                          ThinningStats* stats = nullptr);

}  // namespace slj::thin
