#include "thinning/zhang_suen.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/simd.hpp"

namespace slj::thin {
namespace {

// Neighbour ring in Zhang–Suen order P2..P9 (clockwise from north). This is
// exactly kNeighbours8; restated here to make the P-indexing explicit.
constexpr std::array<PointI, 8> kRing = {{{0, -1},   // P2
                                          {1, -1},   // P3
                                          {1, 0},    // P4
                                          {1, 1},    // P5
                                          {0, 1},    // P6
                                          {-1, 1},   // P7
                                          {-1, 0},   // P8
                                          {-1, -1}}};// P9

// Deletability for each sub-iteration (0 = first, 1 = second), indexed by
// the ring code: bit i set iff P(i+2) is foreground. The textbook
// conditions, evaluated once for all 256 rings.
constexpr std::array<std::array<bool, 256>, 2> kDeletable = [] {
  std::array<std::array<bool, 256>, 2> table{};
  for (int code = 0; code < 256; ++code) {
    std::array<int, 8> p{};
    int b = 0;
    for (int i = 0; i < 8; ++i) {
      p[i] = (code >> i) & 1;
      b += p[i];
    }
    int a = 0;
    for (int i = 0; i < 8; ++i) {
      if (p[i] == 0 && p[(i + 1) % 8] == 1) ++a;
    }
    const bool ab = b >= 2 && b <= 6 && a == 1;
    table[0][code] = ab && p[0] * p[2] * p[4] == 0 && p[2] * p[4] * p[6] == 0;
    table[1][code] = ab && p[0] * p[2] * p[6] == 0 && p[0] * p[4] * p[6] == 0;
  }
  return table;
}();

// Zhang–Suen deletability of (x, y) against the current image: one table
// load on the ring code. Interior pixels (the overwhelming majority) load
// their ring with three row pointers and no bounds checks; only the
// one-pixel border falls back to at_or.
bool deletable(const BinaryImage& img, int x, int y, bool first) {
  const int w = img.width();
  const int h = img.height();
  unsigned code = 0;
  if (x > 0 && y > 0 && x < w - 1 && y < h - 1) {
    const std::uint8_t* up = img.data().data() + static_cast<std::size_t>(y - 1) * w + x;
    const std::uint8_t* mid = up + w;
    const std::uint8_t* down = mid + w;
    code = (up[0] != 0 ? 1u : 0u) | (up[1] != 0 ? 2u : 0u) | (mid[1] != 0 ? 4u : 0u) |
           (down[1] != 0 ? 8u : 0u) | (down[0] != 0 ? 16u : 0u) | (down[-1] != 0 ? 32u : 0u) |
           (mid[-1] != 0 ? 64u : 0u) | (up[-1] != 0 ? 128u : 0u);
  } else {
    for (std::size_t i = 0; i < kRing.size(); ++i) {
      if (img.at_or(x + kRing[i].x, y + kRing[i].y, 0) != 0) code |= 1u << i;
    }
  }
  return kDeletable[first ? 0 : 1][code];
}

}  // namespace

SLJ_HOT_PATH void zhang_suen_thin_into(const BinaryImage& img, FrameWorkspace& ws, BinaryImage& out,
                          ThinningStats* stats) {
  out = img;  // vector copy-assignment: reuses out's buffer at steady state
  const int w = out.width();
  const int h = out.height();
  auto& cand_first = ws.thin_candidates_first;
  auto& cand_second = ws.thin_candidates_second;
  auto& eval = ws.thin_eval;
  auto& deletions = ws.thin_deletions;
  auto& marks = ws.thin_marks;
  cand_first.clear();
  cand_second.clear();
  eval.clear();
  marks.assign(out.size(), 0);
  std::uint8_t* data = out.data().data();

  // Applies the collected deletions simultaneously, then queues every pixel
  // of each deleted pixel's 3×3 neighbourhood for both sub-iteration types:
  // those are exactly the pixels whose answer can have changed.
  const auto apply_deletions = [&] {
    for (const std::uint32_t idx : deletions) data[idx] = 0;
    for (const std::uint32_t idx : deletions) {
      const int x = static_cast<int>(idx % static_cast<std::uint32_t>(w));
      const int y = static_cast<int>(idx / static_cast<std::uint32_t>(w));
      const int x0 = std::max(x - 1, 0), x1 = std::min(x + 1, w - 1);
      const int y0 = std::max(y - 1, 0), y1 = std::min(y + 1, h - 1);
      for (int ny = y0; ny <= y1; ++ny) {
        for (int nx = x0; nx <= x1; ++nx) {
          const std::uint32_t q = static_cast<std::uint32_t>(ny) * w + nx;
          if (!(marks[q] & 1u)) {
            marks[q] |= 1u;
            cand_first.push_back(q);
          }
          if (!(marks[q] & 2u)) {
            marks[q] |= 2u;
            cand_second.push_back(q);
          }
        }
      }
    }
  };

  // Full-image sub-iteration (first pass only). Background runs — most of a
  // silhouette frame — are skipped a vector block at a time; skipped pixels
  // are all zero, which can never be deletable.
  const auto full_sub = [&](bool first) {
    deletions.clear();
    for (int y = 0; y < h; ++y) {
      const std::size_t row = static_cast<std::size_t>(y) * w;
      std::size_t x = 0;
      const std::size_t wn = static_cast<std::size_t>(w);
      while (x < wn) {
        x += simd::find_nonzero<simd::Active>(data + row + x, wn - x);
        if (x >= wn) break;
        const std::size_t idx = row + x;
        if (deletable(out, static_cast<int>(x), y, first)) {
          deletions.push_back(static_cast<std::uint32_t>(idx));
        }
        ++x;
      }
    }
    apply_deletions();
    return deletions.size();
  };

  // Frontier sub-iteration: only revisit queued candidates.
  const auto frontier_sub = [&](bool first) {
    auto& cand = first ? cand_first : cand_second;
    const std::uint8_t bit = first ? 1u : 2u;
    eval.swap(cand);
    cand.clear();
    deletions.clear();
    for (const std::uint32_t idx : eval) {
      marks[idx] &= static_cast<std::uint8_t>(~bit);
      if (!data[idx]) continue;
      const int x = static_cast<int>(idx % static_cast<std::uint32_t>(w));
      const int y = static_cast<int>(idx / static_cast<std::uint32_t>(w));
      if (deletable(out, x, y, first)) deletions.push_back(idx);
    }
    apply_deletions();
    return deletions.size();
  };

  int iterations = 0;
  std::size_t removed_total = 0;
  bool full_scan = true;
  while (true) {
    const std::size_t removed = full_scan ? full_sub(true) + full_sub(false)
                                          : frontier_sub(true) + frontier_sub(false);
    full_scan = false;
    ++iterations;
    removed_total += removed;
    if (removed == 0) break;
  }
  if (stats != nullptr) {
    stats->iterations = iterations;
    stats->removed = removed_total;
  }
}

}  // namespace slj::thin
