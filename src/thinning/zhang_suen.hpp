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

/// Thins `img` (0/1 mask) into a one-pixel-wide skeleton in `out`;
/// `stats`, when given, receives iteration telemetry for the perf benches.
/// Thinning only deletes, so only the foreground's bounding box is worked
/// on: its rows are packed 64 pixels to a `uint64` word (ws.thin_bits)
/// between two zero rows, and the bits past the box's left and right edge
/// read as 0 — the same zero ring the reference's at_or(…, 0) reads off the
/// frame. Each sub-iteration then decides 64 pixels at once from the row
/// above (as it was before the sub-iteration), the row itself and the row
/// below, shifted one bit for the diagonal and side neighbours:
///  - (a) 2 <= B <= 6 is "at least two foreground and at least two
///    background neighbours", each a two-level OR chain over the ring;
///  - (b) A == 1 is "exactly one 0→1 step" around P2..P9,P2, the same chain
///    over the eight steps;
///  - (c)/(d) are word-wide ANDs of P2/P4/P6/P8.
/// The row's deletions are applied together once the row is decided, and
/// the row's old value is kept for the row below, so every deletion of a
/// sub-iteration is decided on the same image, as in the textbook sweep
/// (tests/reference/), which the parity suites pin bit for bit. `out` is
/// the whole frame, zero outside the box, each surviving pixel keeping its
/// input byte; `out` must not alias `img`. Stats match the reference
/// exactly. At steady state nothing is heap-allocated: the scratch is sized
/// for a whole-frame box on first use.
SLJ_HOT_PATH void zhang_suen_thin_into(const BinaryImage& img, FrameWorkspace& ws, BinaryImage& out,
                                       ThinningStats* stats = nullptr);

}  // namespace slj::thin
