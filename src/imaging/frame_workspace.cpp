#include "imaging/frame_workspace.hpp"

#include <algorithm>
#include <cstdint>

#include "core/simd.hpp"
#include "imaging/row_kernels.hpp"

namespace slj {
namespace {

// Fused RGB summed-area-table build, templated on the simd backend: each
// frame row is staged as int32 prefix sums (one row per channel in
// ws.sat_stage) and widened onto the table row above by sat_row; table
// row 0 is all zeros, so the first frame row needs no special case.
//
// Bit-identity at any backend: every table entry is an integer sum of 8-bit
// pixels, far below 2^53, so each double addition is exact.
template <class B>
void build_rgb_integrals_impl(const RgbImage& img, FrameWorkspace& ws) {
  const int w = img.width();
  const int h = img.height();
  double* tr = ws.integral_r.raw_prepare_discard(w, h);
  double* tg = ws.integral_g.raw_prepare_discard(w, h);
  double* tb = ws.integral_b.raw_prepare_discard(w, h);
  const std::size_t stride = static_cast<std::size_t>(w) + 1;
  // Discard-prepared tables: table row 0 (all zeros) is ours to write; the
  // row kernels write column 0 of every other row.
  std::fill_n(tr, stride, 0.0);
  std::fill_n(tg, stride, 0.0);
  std::fill_n(tb, stride, 0.0);

  ws.sat_stage.resize(3u * static_cast<std::size_t>(w));
  std::int32_t* stage_r = ws.sat_stage.data();
  std::int32_t* stage_g = stage_r + w;
  std::int32_t* stage_b = stage_g + w;
  const Rgb* px = img.data().data();
  for (int y = 0; y < h; ++y) {
    const Rgb* p = px + static_cast<std::size_t>(y) * static_cast<std::size_t>(w);
    std::int32_t sum_r = 0;
    std::int32_t sum_g = 0;
    std::int32_t sum_b = 0;
    for (int x = 0; x < w; ++x) {
      sum_r += p[x].r;
      sum_g += p[x].g;
      sum_b += p[x].b;
      stage_r[x] = sum_r;
      stage_g[x] = sum_g;
      stage_b[x] = sum_b;
    }
    const std::size_t row = (static_cast<std::size_t>(y) + 1) * stride;
    rowk::sat_row<B>(stage_r, tr + row - stride, tr + row, w);
    rowk::sat_row<B>(stage_g, tg + row - stride, tg + row, w);
    rowk::sat_row<B>(stage_b, tb + row - stride, tb + row, w);
  }
}

}  // namespace

void build_rgb_integrals(const RgbImage& img, FrameWorkspace& ws) {
  build_rgb_integrals_impl<simd::Active>(img, ws);
}

void build_rgb_integrals_scalar(const RgbImage& img, FrameWorkspace& ws) {
  build_rgb_integrals_impl<simd::ScalarBackend>(img, ws);
}

}  // namespace slj
