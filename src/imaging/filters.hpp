// The paper smooths the extracted silhouette with a median filter (Sec. 2,
// Fig. 1c). On a 0/1 mask the median is a majority vote over the window, so
// the segmentation pipeline only needs the binary median below; the
// grayscale median it is checked against lives in tests/reference/.
#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/image.hpp"
#include "imaging/integral.hpp"

namespace slj {

/// Median filter specialised to 0/1 masks: a pixel becomes foreground iff
/// the majority of its (clamped) k×k window is foreground (ties resolve to
/// foreground: the upper median, as a grayscale median takes it). Built on
/// the mask's summed-area table, it is the reference median_filter_binary_into
/// is tested against.
BinaryImage median_filter_binary(const BinaryImage& img, int k);

/// Allocation-free production variant, bit-identical to
/// median_filter_binary. For k <= 127 it is a separable integer box count
/// over sliding 16-bit column sums kept in `colsum`; larger windows fall
/// back to the reference summed-area table, built in `integral`. Every
/// buffer reuses its storage; `out` must not alias `img`.
SLJ_HOT_PATH void median_filter_binary_into(const BinaryImage& img, int k, IntegralImage& integral,
                                            std::vector<std::uint16_t>& colsum, BinaryImage& out);

}  // namespace slj
