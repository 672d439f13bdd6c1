// Region utilities used to clean the extracted silhouette before thinning:
// border-flood hole filling.
#pragma once

#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "imaging/image.hpp"

namespace slj {

/// Fills interior holes: every background region not connected (4-conn) to
/// the image border becomes foreground. The border flood runs on
/// `reached`/`stack` scratch and the result lands in `out`, all reusing their
/// storage. The flood walks a sentinel-padded closed map with raw indices, so
/// the inner loop has no bounds checks. `out` must not alias `img`.
SLJ_HOT_PATH void fill_holes_into(const BinaryImage& img, BinaryImage& reached,
                     std::vector<std::uint32_t>& stack, BinaryImage& out);

}  // namespace slj
