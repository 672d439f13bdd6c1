// Region utilities used to clean the extracted silhouette before thinning:
// border-flood hole filling.
#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/image.hpp"

namespace slj {

/// Fills interior holes: every background region not connected (4-conn) to
/// the image border becomes foreground; the result is 0/1. Only the
/// foreground's bounding box (foreground_box) can hold a hole, so the border flood covers
/// just that box plus a one-cell open ring, on a sentinel-padded closed map
/// walked with raw indices (no bounds checks in the inner loop). The flood
/// runs on `reached`/`stack` scratch, sized for the whole frame on first use
/// so a growing box never reallocates, and the result lands in `out`, all
/// reusing their storage. `out` must not alias `img`.
SLJ_HOT_PATH void fill_holes_into(const BinaryImage& img, BinaryImage& reached,
                     std::vector<std::uint32_t>& stack, BinaryImage& out);

}  // namespace slj
