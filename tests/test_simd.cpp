// SIMD-vs-scalar property suite.
//
// The simd.hpp contract is bit-identity on the kernels' integer domain:
// every primitive instantiated with the configured backend (simd::Active)
// must produce exactly the bytes the always-compiled ScalarBackend twin
// produces — across odd widths, vector-width tails, unaligned bases, and
// degenerate all-0 / all-255 planes. On an SLJ_SIMD=OFF build Active *is*
// ScalarBackend and the primitive checks pin trivially; the kernel-level
// checks against the untouched reference implementations bite on every
// build.
#include "core/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <vector>

#include "imaging/filters.hpp"
#include "imaging/frame_workspace.hpp"
#include "imaging/morphology.hpp"
#include "imaging/row_kernels.hpp"
#include "reference.hpp"
#include "segmentation/object_extractor.hpp"

namespace slj {
namespace {

using simd::Active;
using simd::ScalarBackend;

// Widths straddling every lane boundary of every backend (8/16/32 u8 lanes,
// 8/16 u16 lanes), plus odd primes and a plain round number.
const std::vector<std::size_t> kWidths = {1,  2,  3,  5,  7,  8,  15, 16,
                                          17, 31, 32, 33, 63, 64, 65, 100};

std::vector<std::uint8_t> random_bytes(std::uint32_t seed, std::size_t n, int hi) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, hi);
  std::vector<std::uint8_t> out(n);
  for (std::uint8_t& x : out) x = static_cast<std::uint8_t>(dist(rng));
  return out;
}

// ---- byte-plane primitives --------------------------------------------------

TEST(SimdBytePlane, FindNonzeroMatchesScalarAcrossWidthsAndOffsets) {
  for (const std::size_t n : kWidths) {
    // Sparse plane with slack so unaligned bases stay in bounds.
    std::vector<std::uint8_t> plane(n + 7, 0);
    std::mt19937 rng(static_cast<std::uint32_t>(n) * 31u);
    for (std::size_t hits = 0; hits < std::max<std::size_t>(1, n / 8); ++hits) {
      plane[rng() % plane.size()] = static_cast<std::uint8_t>(1 + rng() % 255);
    }
    for (std::size_t off = 0; off < 7; ++off) {
      const std::uint8_t* p = plane.data() + off;
      EXPECT_EQ(simd::find_nonzero<Active>(p, n), simd::find_nonzero<ScalarBackend>(p, n))
          << "n " << n << " off " << off;
    }
    // All-zero and first/last-only: the boundary answers.
    std::vector<std::uint8_t> zeros(n, 0);
    EXPECT_EQ(simd::find_nonzero<Active>(zeros.data(), n), n) << "n " << n;
    zeros[n - 1] = 255;
    EXPECT_EQ(simd::find_nonzero<Active>(zeros.data(), n), n - 1) << "n " << n;
    zeros.assign(n, 0);
    zeros[0] = 1;
    EXPECT_EQ(simd::find_nonzero<Active>(zeros.data(), n), 0u) << "n " << n;
  }
}

TEST(SimdBytePlane, StoreEqual01MatchesScalar) {
  for (const std::size_t n : kWidths) {
    std::mt19937 rng(static_cast<std::uint32_t>(n) + 77u);
    std::vector<int> labels(n);
    for (int& l : labels) l = static_cast<int>(rng() % 5);
    for (const int needle : {0, 1, 3, 7}) {
      std::vector<std::uint8_t> got(n, 0xee), want(n, 0xee);
      simd::store_equal01_i32<Active>(labels.data(), needle, got.data(), n);
      simd::store_equal01_i32<ScalarBackend>(labels.data(), needle, want.data(), n);
      EXPECT_EQ(got, want) << "n " << n << " needle " << needle;
    }
  }
}

TEST(SimdBytePlane, StoreFill01MatchesScalarIncludingSaturatedPlanes) {
  for (const std::size_t n : kWidths) {
    const std::vector<std::uint8_t> rand_src = random_bytes(static_cast<std::uint32_t>(n), n, 2);
    const std::vector<std::uint8_t> rand_closed =
        random_bytes(static_cast<std::uint32_t>(n) + 1, n, 1);
    const std::vector<std::uint8_t> zeros(n, 0);
    const std::vector<std::uint8_t> full(n, 255);
    const std::vector<std::uint8_t>* cases[][2] = {
        {&rand_src, &rand_closed}, {&zeros, &zeros}, {&full, &full},
        {&zeros, &full},           {&full, &zeros},
    };
    for (const auto& c : cases) {
      std::vector<std::uint8_t> got(n, 0xee), want(n, 0xee);
      simd::store_fill01_u8<Active>(c[0]->data(), c[1]->data(), got.data(), n);
      simd::store_fill01_u8<ScalarBackend>(c[0]->data(), c[1]->data(), want.data(), n);
      EXPECT_EQ(got, want) << "n " << n;
    }
  }
}

// ---- row kernels ------------------------------------------------------------

TEST(SimdRowKernels, ColumnSumsAndTapSumsMatchScalar) {
  // The window sums: sliding 16-bit column sums over a planar RGB row
  // (3·width bytes), then n-tap horizontal sums one lane apart (the
  // background model's, across all three planes at once, and the median's
  // one-channel counts) or three apart.
  for (const std::size_t w : kWidths) {
    const int len = static_cast<int>(3 * w);
    const std::vector<std::uint8_t> add = random_bytes(static_cast<std::uint32_t>(w), 3 * w, 255);
    const std::vector<std::uint8_t> sub =
        random_bytes(static_cast<std::uint32_t>(w) + 5, 3 * w, 255);
    std::vector<std::uint16_t> got(3 * w, 0), want(3 * w, 0);
    for (int round = 0; round < 3; ++round) {
      rowk::col_add_u8<Active>(add.data(), got.data(), len);
      rowk::col_add_u8<ScalarBackend>(add.data(), want.data(), len);
    }
    rowk::col_slide_u8<Active>(sub.data(), add.data(), got.data(), len);
    rowk::col_slide_u8<ScalarBackend>(sub.data(), add.data(), want.data(), len);
    rowk::col_sub_u8<Active>(sub.data(), got.data(), len);
    rowk::col_sub_u8<ScalarBackend>(sub.data(), want.data(), len);
    ASSERT_EQ(got, want) << "w " << w;
    for (const int stride : {1, 3}) {
      for (const int taps : {1, 2, 3, 5}) {
        const int n = len - (taps - 1) * stride;
        if (n <= 0) continue;
        std::vector<std::uint16_t> sum_got(static_cast<std::size_t>(n), 0xeeee);
        std::vector<std::uint16_t> sum_want(static_cast<std::size_t>(n), 0xeeee);
        rowk::tap_sum_u16<Active>(got.data(), stride, taps, sum_got.data(), n);
        rowk::tap_sum_u16<ScalarBackend>(got.data(), stride, taps, sum_want.data(), n);
        EXPECT_EQ(sum_got, sum_want) << "w " << w << " stride " << stride << " taps " << taps;
        for (int j = 0; j < n; ++j) {
          int direct = 0;
          for (int t = 0; t < taps; ++t) direct += got[static_cast<std::size_t>(j + t * stride)];
          ASSERT_EQ(sum_got[static_cast<std::size_t>(j)], direct) << "w " << w << " j " << j;
        }
      }
    }
  }
}

TEST(SimdBytePlane, DeinterleaveRgbMatchesScalarOnOddWidths) {
  // One RGB row into three planes. The widths straddle the 16-pixel SSE2 /
  // NEON block and the 32-pixel AVX2 block; the base offsets move the loads
  // off alignment, and the sentinel checks that nothing past n is written.
  for (const std::size_t w : {1u, 2u, 15u, 17u, 33u, 48u, 65u}) {
    for (const std::size_t offset : {0u, 1u, 5u}) {
      const std::vector<std::uint8_t> rgb =
          random_bytes(static_cast<std::uint32_t>(w * 7 + offset), 3 * w + offset, 255);
      const std::uint8_t* src = rgb.data() + offset;
      std::vector<std::uint8_t> got(3 * w + 1, 0xa5), want(3 * w + 1, 0xa5);
      simd::deinterleave_rgb<Active>(src, got.data(), got.data() + w, got.data() + 2 * w, w);
      simd::deinterleave_rgb<ScalarBackend>(src, want.data(), want.data() + w,
                                            want.data() + 2 * w, w);
      ASSERT_EQ(got, want) << "w " << w << " offset " << offset;
      for (std::size_t i = 0; i < w; ++i) {
        for (std::size_t c = 0; c < 3; ++c) {
          ASSERT_EQ(got[c * w + i], src[3 * i + c]) << "w " << w << " i " << i << " c " << c;
        }
      }
      EXPECT_EQ(got[3 * w], 0xa5) << "w " << w;
    }
  }
}

TEST(SimdRowKernels, ScaledSadAndThresholdMatchScalar) {
  // The extractor's T row, k·Σ_c |s_c − b_c| over three planes `w` apart,
  // at the largest sums (9·255) and every scale 36 / area, then its
  // threshold with the tie flag, across every vector tail.
  for (const std::size_t w : kWidths) {
    std::mt19937 rng(static_cast<std::uint32_t>(w) + 77);
    std::uniform_int_distribution<int> sum(0, 9 * 255);
    std::vector<std::uint16_t> s(3 * w), b(3 * w);
    for (std::size_t i = 0; i < 3 * w; ++i) {
      s[i] = static_cast<std::uint16_t>(i % 5 == 0 ? 9 * 255 : sum(rng));
      b[i] = static_cast<std::uint16_t>(i % 7 == 0 ? 0 : sum(rng));
    }
    const int n = static_cast<int>(w);
    for (const std::uint16_t k : {std::uint16_t{1}, std::uint16_t{4}}) {
      std::vector<std::uint16_t> got(w), want(w);
      const std::uint16_t max_got =
          rowk::scaled_sad3_u16<Active>(s.data(), b.data(), n, k, got.data(), n);
      const std::uint16_t max_want =
          rowk::scaled_sad3_u16<ScalarBackend>(s.data(), b.data(), n, k, want.data(), n);
      ASSERT_EQ(got, want) << "w " << w << " k " << k;
      ASSERT_EQ(max_got, max_want) << "w " << w << " k " << k;
      EXPECT_EQ(max_got, *std::max_element(want.begin(), want.end())) << "w " << w;
      for (std::size_t x = 0; x < w; ++x) {
        int sad = 0;
        for (std::size_t c = 0; c < 3; ++c) sad += std::abs(s[c * w + x] - b[c * w + x]);
        ASSERT_EQ(got[x], k * sad) << "w " << w << " x " << x;
      }
      // Thresholds at a present value (a tie), just above it, and at 1.
      for (const std::uint16_t thr : {got[w / 2], static_cast<std::uint16_t>(got[w / 2] + 1),
                                      std::uint16_t{1}}) {
        if (thr == 0) continue;
        std::vector<std::uint8_t> mask_got(w + 1, 0xa5), mask_want(w + 1, 0xa5);
        const bool tie_got = rowk::threshold_u16<Active>(got.data(), thr, mask_got.data(), w);
        const bool tie_want =
            rowk::threshold_u16<ScalarBackend>(got.data(), thr, mask_want.data(), w);
        ASSERT_EQ(mask_got, mask_want) << "w " << w << " thr " << thr;
        ASSERT_EQ(tie_got, tie_want) << "w " << w << " thr " << thr;
        EXPECT_EQ(tie_got, std::find(got.begin(), got.end(), thr) != got.end());
        EXPECT_EQ(mask_got[w], 0xa5);
      }
    }
    // The largest T: 4 · 27 · 255 = 27540, below the signed 16-bit limit.
    const std::vector<std::uint16_t> full(3 * w, 9 * 255), zero(3 * w, 0);
    std::vector<std::uint16_t> t(w);
    EXPECT_EQ(rowk::scaled_sad3_u16<Active>(full.data(), zero.data(), n, 4, t.data(), n), 27540);
  }
}

// ---- kernel-level SIMD parity -----------------------------------------------

RgbImage random_rgb(std::uint32_t seed, int w, int h) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> dist(0, 255);
  RgbImage img(w, h);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img.data()[i] = {static_cast<std::uint8_t>(dist(rng)), static_cast<std::uint8_t>(dist(rng)),
                     static_cast<std::uint8_t>(dist(rng))};
  }
  return img;
}

TEST(SimdKernelParity, MedianFilterMatchesReferenceOnSaturatedAndOddSizes) {
  // The production column-count path, up to its largest window k = 127,
  // against the summed-area-table reference; 65x1 is a single row wider
  // than every backend's lane count.
  FrameWorkspace ws;
  BinaryImage out;
  const std::pair<int, int> sizes[] = {{5, 5}, {17, 11}, {33, 31}, {64, 50}, {65, 1}};
  for (const auto& [w, h] : sizes) {
    std::mt19937 rng(static_cast<std::uint32_t>(w + h));
    for (int variant = 0; variant < 3; ++variant) {
      BinaryImage mask(w, h, variant == 1 ? 1 : 0);
      if (variant == 2) {
        for (std::size_t i = 0; i < mask.size(); ++i) {
          mask.data()[i] = static_cast<std::uint8_t>(rng() % 2);
        }
      }
      for (const int k : {1, 3, 5, 127}) {
        median_filter_binary_into(mask, k, ws.median_colsum, out);
        EXPECT_EQ(out, reference::median_filter_binary(mask, k))
            << w << "x" << h << " variant " << variant << " k " << k;
      }
    }
  }
}

TEST(SimdKernelParity, HoleFillAndLargestComponentMatchReferenceOnSaturatedPlanes) {
  FrameWorkspace ws;
  BinaryImage filled, largest;
  for (const auto& [w, h] : {std::pair<int, int>{1, 1}, {9, 7}, {33, 20}, {64, 33}}) {
    std::mt19937 rng(static_cast<std::uint32_t>(w * 7 + h));
    for (int variant = 0; variant < 3; ++variant) {
      BinaryImage mask(w, h, variant == 1 ? 1 : 0);
      if (variant == 2) {
        for (std::size_t i = 0; i < mask.size(); ++i) {
          mask.data()[i] = static_cast<std::uint8_t>(rng() % 2);
        }
      }
      // Reused workspace scratch against fresh scratch.
      FrameWorkspace fresh;
      BinaryImage want;
      fill_holes_into(mask, ws.reached, ws.flood_stack, filled);
      fill_holes_into(mask, fresh.reached, fresh.flood_stack, want);
      EXPECT_EQ(filled, want) << w << "x" << h << " variant " << variant;
      largest_component_into(mask, true, ws.labeling, ws.pixel_stack, largest);
      largest_component_into(mask, true, fresh.labeling, fresh.pixel_stack, want);
      EXPECT_EQ(largest, want) << w << "x" << h << " variant " << variant;
    }
  }
}

TEST(SimdKernelParity, ExtractIntoMatchesExtractOnOddFrameSizes) {
  // reference::extract is the scalar seed implementation; extract_into runs
  // the SIMD kernels. Odd sizes force every vector tail in the fused passes.
  FrameWorkspace ws;  // deliberately reused across sizes
  BinaryImage silhouette;
  for (const auto& [w, h] : {std::pair<int, int>{31, 17}, {65, 33}, {64, 47}}) {
    const RgbImage background = random_rgb(static_cast<std::uint32_t>(w), w, h);
    RgbImage frame = background;
    // Perturb a patch so the mask is non-trivial.
    for (int y = h / 4; y < h / 2; ++y) {
      for (int x = w / 4; x < w / 2; ++x) {
        frame.at(x, y) = {255, 255, 255};
      }
    }
    seg::ObjectExtractor extractor;
    extractor.set_background(background);
    const reference::ExtractionResult want = reference::extract(background, frame);
    const double max_d = extractor.extract_into(frame, ws, silhouette);
    EXPECT_EQ(silhouette, want.silhouette) << w << "x" << h;
    EXPECT_EQ(ws.smoothed, want.smoothed) << w << "x" << h;
    EXPECT_EQ(ws.raw_mask, want.raw_mask) << w << "x" << h;
    EXPECT_EQ(reference::scaled_difference_mismatches(ws.difference36, want.difference), 0u)
        << w << "x" << h;
    EXPECT_EQ(max_d, want.max_difference) << w << "x" << h;
  }
}

}  // namespace
}  // namespace slj
