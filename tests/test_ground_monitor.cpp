#include <gtest/gtest.h>

#include "core/pipeline.hpp"

namespace slj::core {
namespace {

TEST(GroundMonitor, UncalibratedEmptyFramesStayGrounded) {
  GroundMonitor monitor;
  // Empty frames before any silhouette: no ground line yet (bottom_row = -1
  // from the pipeline), so the jumper cannot be airborne.
  EXPECT_FALSE(monitor.airborne(-1));
  EXPECT_FALSE(monitor.airborne(-1));
  EXPECT_EQ(monitor.ground_row(), -1);
  // The first visible frame calibrates.
  EXPECT_FALSE(monitor.airborne(120));
  EXPECT_EQ(monitor.ground_row(), 120);
}

TEST(GroundMonitor, ThresholdBoundaryIsExclusive) {
  GroundMonitor monitor;
  monitor.airborne(100);  // calibrate: ground_row = 100
  const int line = 100 - GroundMonitor::kLiftThresholdPx;
  // bottom_row == ground_row - threshold is *not* airborne (strict <).
  EXPECT_FALSE(monitor.airborne(line));
  EXPECT_TRUE(monitor.airborne(line - 1));
  // One pixel back down across the boundary lands again.
  EXPECT_FALSE(monitor.airborne(line));
}

TEST(GroundMonitor, ResetForgetsCalibrationAndFlight) {
  GroundMonitor monitor;
  monitor.airborne(100);
  EXPECT_TRUE(monitor.airborne(80));
  monitor.reset();
  EXPECT_EQ(monitor.ground_row(), -1);
  // After reset an empty frame is grounded again (no stale airborne carry).
  EXPECT_FALSE(monitor.airborne(-1));
  // And the next visible frame recalibrates — even at a new ground level.
  EXPECT_FALSE(monitor.airborne(60));
  EXPECT_EQ(monitor.ground_row(), 60);
  EXPECT_TRUE(monitor.airborne(50));
}

TEST(GroundMonitor, EmptyFrameCarriesLastFlagOnlyWhileCalibrated) {
  GroundMonitor monitor;
  monitor.airborne(100);
  EXPECT_TRUE(monitor.airborne(90));
  // Mid-flight dropout (segmentation lost the jumper): stay airborne.
  EXPECT_TRUE(monitor.airborne(-1));
  EXPECT_TRUE(monitor.airborne(-1));
  // Reappears on the ground: flag clears, and a later dropout stays grounded.
  EXPECT_FALSE(monitor.airborne(100));
  EXPECT_FALSE(monitor.airborne(-1));
}

TEST(GroundMonitor, DescendingBelowGroundLineNeverAirborne) {
  GroundMonitor monitor;
  monitor.airborne(100);
  // Rows *below* the calibrated line (larger y) are grounded, not flight.
  EXPECT_FALSE(monitor.airborne(110));
  EXPECT_FALSE(monitor.airborne(200));
}

TEST(GroundMonitor, NoisyFirstFrameNoLongerFlagsWholeClipAirborne) {
  // The seed bug: calibration used only the *first* visible bottom row, so
  // one under-segmented first frame (legs clipped → bottom row too high)
  // made every later standing frame read as airborne. Calibration now spans
  // the first K grounded frames taking the max (lowest point) of their
  // bottom rows.
  GroundMonitor monitor;
  EXPECT_FALSE(monitor.airborne(80));  // noisy first frame: legs clipped
  // The jumper is actually standing with feet at row 100.
  EXPECT_FALSE(monitor.airborne(100));
  EXPECT_EQ(monitor.ground_row(), 100);  // calibration recovered
  EXPECT_FALSE(monitor.airborne(100));
  EXPECT_FALSE(monitor.airborne(99));
  // A genuine lift is still detected against the corrected line.
  EXPECT_TRUE(monitor.airborne(90));
}

TEST(GroundMonitor, CalibrationWindowCloses) {
  GroundMonitor monitor;
  for (int i = 0; i < GroundMonitor::kCalibrationFrames; ++i) {
    EXPECT_FALSE(monitor.airborne(100));
  }
  // Window consumed: a later deeper row (crouch past the line, or a shadow)
  // no longer drags the calibration down.
  EXPECT_FALSE(monitor.airborne(140));
  EXPECT_EQ(monitor.ground_row(), 100);
}

TEST(GroundMonitor, AirborneFramesDoNotConsumeCalibration) {
  // A jump that starts inside the calibration window must not freeze the
  // window: flight frames are skipped, later grounded frames still refine.
  static_assert(GroundMonitor::kCalibrationFrames == 5);
  GroundMonitor monitor;
  EXPECT_FALSE(monitor.airborne(98));   // slightly clipped first frame
  EXPECT_TRUE(monitor.airborne(80));    // take-off
  EXPECT_TRUE(monitor.airborne(70));
  EXPECT_EQ(monitor.ground_row(), 98);  // flight did not move the line
  EXPECT_FALSE(monitor.airborne(100));  // landing, deeper than frame 0
  EXPECT_EQ(monitor.ground_row(), 100);
  EXPECT_FALSE(monitor.airborne(100));
  EXPECT_FALSE(monitor.airborne(100));
  EXPECT_FALSE(monitor.airborne(101));  // fifth grounded frame closes it
  EXPECT_FALSE(monitor.airborne(140));
  EXPECT_EQ(monitor.ground_row(), 101);
}

TEST(GroundMonitor, ResetReopensCalibrationWindow) {
  GroundMonitor monitor;
  for (int i = 0; i < GroundMonitor::kCalibrationFrames; ++i) monitor.airborne(100);
  monitor.reset();
  EXPECT_FALSE(monitor.airborne(50));
  EXPECT_FALSE(monitor.airborne(60));
  EXPECT_EQ(monitor.ground_row(), 60);
}

}  // namespace
}  // namespace slj::core
