#include "imaging/morphology.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <vector>

#include "core/simd.hpp"

namespace slj {

SLJ_HOT_PATH void fill_holes_into(const BinaryImage& img, BinaryImage& reached,
                     std::vector<std::uint32_t>& stack, BinaryImage& out) {
  const int w = img.width();
  const int h = img.height();
  out.resize_discard(w, h);
  if (w == 0 || h == 0) return;
  // Flood the background from the border (4-connectivity keeps diagonal
  // silhouette boundaries watertight), then invert what was not reached.
  //
  // The flood runs on a "closed" map padded by two cells per side: the
  // outermost ring is pre-closed sentinel (so neighbour indices never leave
  // the array), the next ring is open border the flood is seeded from, and
  // interior cells start closed iff the corresponding pixel is foreground.
  // Flood order does not affect the reached set, so the filled result is
  // identical to the original per-pixel flood.
  const int pw = w + 4;
  const int ph = h + 4;
  reached.resize_discard(pw, ph);  // holds the closed map, not plain reach
  std::uint8_t* closed = reached.data().data();
  const std::uint8_t* src = img.data().data();
  for (int py = 0; py < ph; ++py) {
    std::uint8_t* row = closed + static_cast<std::size_t>(py) * pw;
    if (py == 0 || py == ph - 1) {
      std::fill(row, row + pw, 1);
      continue;
    }
    row[0] = 1;
    row[pw - 1] = 1;
    if (py == 1 || py == ph - 2) {
      std::fill(row + 1, row + pw - 1, 0);
      continue;
    }
    row[1] = 0;
    row[pw - 2] = 0;
    // Any nonzero source byte closes the cell, so the row copies verbatim.
    std::memcpy(row + 2, src + static_cast<std::size_t>(py - 2) * w, static_cast<std::size_t>(w));
  }
  // Scanline flood from a single seed on the open border ring (the ring is
  // 4-connected, so one seed reaches all of it). Each popped seed closes its
  // whole horizontal run, then pushes one representative per open run in the
  // rows above and below — each cell is visited O(1) times instead of once
  // per neighbour. The reached set is the seed's connected component either
  // way, so the filled result is identical to the per-pixel flood.
  stack.clear();
  const std::uint32_t seed = static_cast<std::uint32_t>(pw) + 1u;
  closed[seed] = 1;
  stack.push_back(seed);
  while (!stack.empty()) {
    const std::uint32_t idx = stack.back();
    stack.pop_back();
    // Expand the run; the sentinel columns (always closed) stop the walks.
    std::uint32_t l = idx;
    while (!closed[l - 1]) closed[--l] = 1;
    std::uint32_t r = idx;
    while (!closed[r + 1]) closed[++r] = 1;
    // Seed the adjacent rows: one push per maximal open run inside the
    // window. The sentinel rows (always closed) make the offsets safe.
    for (const std::int64_t dir : {-static_cast<std::int64_t>(pw), static_cast<std::int64_t>(pw)}) {
      std::uint32_t j = static_cast<std::uint32_t>(static_cast<std::int64_t>(l) + dir);
      const std::uint32_t j_end = static_cast<std::uint32_t>(static_cast<std::int64_t>(r) + dir);
      while (j <= j_end) {
        if (closed[j]) {
          ++j;
          continue;
        }
        closed[j] = 1;
        stack.push_back(j);
        ++j;
        // Skip the rest of this run; the pushed seed closes it when popped.
        while (j <= j_end && !closed[j]) ++j;
      }
    }
  }
  // A background pixel still open is an interior hole: fill it.
  std::uint8_t* dst = out.data().data();
  for (int y = 0; y < h; ++y) {
    const std::uint8_t* src_row = src + static_cast<std::size_t>(y) * w;
    const std::uint8_t* closed_row = closed + static_cast<std::size_t>(y + 2) * pw + 2;
    simd::store_fill01_u8<simd::Active>(src_row, closed_row, dst + static_cast<std::size_t>(y) * w,
                                        static_cast<std::size_t>(w));
  }
}

}  // namespace slj
