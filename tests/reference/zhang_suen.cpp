#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "reference.hpp"

namespace slj::reference {
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

std::array<std::uint8_t, 8> ring_values(const BinaryImage& img, int x, int y) {
  std::array<std::uint8_t, 8> p{};
  for (std::size_t i = 0; i < kRing.size(); ++i) {
    p[i] = img.at_or(x + kRing[i].x, y + kRing[i].y, 0) ? 1 : 0;
  }
  return p;
}

// One sub-iteration: collect deletions against the *current* image, then
// apply them all at once (the algorithm requires simultaneous deletion).
std::size_t sub_iteration(BinaryImage& img, bool first) {
  std::vector<PointI> to_delete;
  for (int y = 0; y < img.height(); ++y) {
    for (int x = 0; x < img.width(); ++x) {
      if (!img.at(x, y)) continue;
      const auto p = ring_values(img, x, y);
      int b = 0;
      for (const std::uint8_t v : p) b += v;
      if (b < 2 || b > 6) continue;
      int a = 0;
      for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] == 0 && p[(i + 1) % p.size()] == 1) ++a;
      }
      if (a != 1) continue;
      // p[0]=P2, p[2]=P4, p[4]=P6, p[6]=P8.
      const bool cond_c = first ? (p[0] * p[2] * p[4] == 0) : (p[0] * p[2] * p[6] == 0);
      const bool cond_d = first ? (p[2] * p[4] * p[6] == 0) : (p[0] * p[4] * p[6] == 0);
      if (cond_c && cond_d) to_delete.push_back({x, y});
    }
  }
  for (const PointI& p : to_delete) img.at(p) = 0;
  return to_delete.size();
}

}  // namespace

std::size_t zhang_suen_pass(BinaryImage& img) {
  return sub_iteration(img, /*first=*/true) + sub_iteration(img, /*first=*/false);
}

BinaryImage zhang_suen_thin(const BinaryImage& img, thin::ThinningStats* stats) {
  BinaryImage out = img;
  int iterations = 0;
  std::size_t removed_total = 0;
  while (true) {
    const std::size_t removed = zhang_suen_pass(out);
    ++iterations;
    removed_total += removed;
    if (removed == 0) break;
  }
  if (stats != nullptr) {
    stats->iterations = iterations;
    stats->removed = removed_total;
  }
  return out;
}

int neighbour_count(const BinaryImage& img, int x, int y) {
  const auto p = ring_values(img, x, y);
  int b = 0;
  for (const std::uint8_t v : p) b += v;
  return b;
}

int transition_count(const BinaryImage& img, int x, int y) {
  const auto p = ring_values(img, x, y);
  int a = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == 0 && p[(i + 1) % p.size()] == 1) ++a;
  }
  return a;
}

}  // namespace slj::reference
