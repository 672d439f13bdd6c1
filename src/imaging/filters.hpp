// The paper smooths the extracted silhouette with a median filter (Sec. 2,
// Fig. 1c). On a 0/1 mask the median is a majority vote over the window, so
// the segmentation pipeline only needs the binary median below; the
// grayscale median and the summed-area-table binary median it is checked
// against live in tests/reference/.
#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/image.hpp"

namespace slj {

/// Median filter specialised to 0/1 masks: a pixel becomes foreground iff
/// the majority of its (clamped) k×k window is foreground (ties resolve to
/// foreground: the upper median, as a grayscale median takes it). A
/// separable integer box count over sliding 16-bit column sums kept in
/// `colsum`, which reuses its storage; `out` must not alias `img`. Only
/// the input's foreground box grown by k/2 can turn foreground, so only
/// that region is computed, its column sums reading the box grown by 2·(k/2);
/// window areas stay clamped to the frame, and `out` is the whole frame,
/// zero elsewhere. Throws std::invalid_argument unless k is odd and in
/// [1, 127].
SLJ_HOT_PATH void median_filter_binary_into(const BinaryImage& img, int k,
                                            std::vector<std::uint16_t>& colsum, BinaryImage& out);

}  // namespace slj
