// Spatial filters. The paper smooths the extracted silhouette with a median
// filter (Sec. 2, Fig. 1c); the binary specialisation below is what the
// segmentation pipeline uses.
#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/image.hpp"
#include "imaging/integral.hpp"

namespace slj {

/// Median filter over a k×k window (k odd). Border pixels use the clamped
/// window. Works on full 8-bit grayscale range.
GrayImage median_filter(const GrayImage& img, int k);

/// Median filter specialised to 0/1 masks: a pixel becomes foreground iff
/// the majority of its (clamped) k×k window is foreground. Equivalent to
/// median_filter on a 0/1 image but considerably faster. Built on the
/// mask's summed-area table, it is the reference median_filter_binary_into
/// is tested against.
BinaryImage median_filter_binary(const BinaryImage& img, int k);

/// Allocation-free production variant, bit-identical to
/// median_filter_binary. For k <= 127 it is a separable integer box count
/// over sliding 16-bit column sums kept in `colsum`; larger windows fall
/// back to the reference summed-area table, built in `integral`. Every
/// buffer reuses its storage; `out` must not alias `img`.
SLJ_HOT_PATH void median_filter_binary_into(const BinaryImage& img, int k, IntegralImage& integral,
                                            std::vector<std::uint16_t>& colsum, BinaryImage& out);

/// Box blur (mean filter) over a k×k window, rounding to nearest.
GrayImage box_blur(const GrayImage& img, int k);

}  // namespace slj
