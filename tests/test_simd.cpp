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
#include <bit>
#include <cmath>
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

// Widths straddling the lane boundaries (8/16 u8 lanes, 8 u16 lanes) and
// their multiples, plus odd primes and a plain round number.
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

// ---- VecF32 -----------------------------------------------------------------
//
// The renderer's float lanes decide bytes only behind a proven bound, but
// every op must still give the scalar twin's bits, so the SLJ_SIMD=OFF
// build renders the frames the SIMD builds render.

constexpr std::size_t kF32Count = 4096;  // a multiple of every backend's lanes

std::uint32_t float_bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// Floats across the renderer's ranges: normals, lifts ± noise, channel
// values on and around whole numbers, negatives and values past 255.
std::vector<float> random_floats(std::uint32_t seed, float lo, float hi) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(lo, hi);
  std::vector<float> out(kF32Count);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const float x = dist(rng);
    switch (i % 8) {
      case 0: out[i] = std::round(x); break;
      case 1: out[i] = std::nextafter(std::round(x), hi); break;
      case 2: out[i] = std::nextafter(std::round(x), lo); break;
      default: out[i] = x;
    }
  }
  return out;
}

// op over whole vectors of Backend, returning the result lanes' bits.
template <class Backend, class Op>
std::vector<std::uint32_t> map_f32(const std::vector<float>& a, const std::vector<float>& b,
                                   Op op) {
  using F = simd::VecF32<Backend>;
  std::vector<float> out(a.size());
  for (std::size_t i = 0; i < a.size(); i += F::kLanes) {
    op(F::load(a.data() + i), F::load(b.data() + i)).store(out.data() + i);
  }
  std::vector<std::uint32_t> bits(out.size());
  std::transform(out.begin(), out.end(), bits.begin(), float_bits);
  return bits;
}

template <class Op>
void expect_f32_op_matches(const char* what, const std::vector<float>& a,
                           const std::vector<float>& b, Op op) {
  EXPECT_EQ(map_f32<Active>(a, b, op), map_f32<ScalarBackend>(a, b, op)) << what;
}

TEST(SimdF32, ArithmeticMatchesScalarBits) {
  const std::vector<float> a = random_floats(1, -300.0f, 300.0f);
  const std::vector<float> b = random_floats(2, -13.0f, 13.0f);
  const std::vector<float> pos = random_floats(3, 0.0f, 300.0f);
  const auto add = [](auto x, auto y) { return x + y; };
  const auto sub = [](auto x, auto y) { return x - y; };
  const auto mul = [](auto x, auto y) { return x * y; };
  const auto div = [](auto x, auto y) { return x / y; };
  const auto sqrt = [](auto x, auto) { return decltype(x)::sqrt(x); };
  const auto broadcast = [](auto x, auto) { return x * decltype(x)::broadcast(3.5f); };
  expect_f32_op_matches("+", a, b, add);
  expect_f32_op_matches("-", a, b, sub);
  expect_f32_op_matches("*", a, b, mul);
  expect_f32_op_matches("/", a, pos, div);
  expect_f32_op_matches("sqrt", pos, pos, sqrt);
  expect_f32_op_matches("broadcast", a, a, broadcast);
}

TEST(SimdF32, TruncMaskBytesAndInterleaveMatchScalar) {
  // Channel values as compose sees them, whole numbers and their float
  // neighbours included, below 0, past 255 and on the margin's edges.
  std::vector<float> v = random_floats(4, -40.0f, 300.0f);
  const std::vector<float> edge = random_floats(5, 0.0f, 1.0f);
  v[3] = 255.0f;
  v[4] = -0.0f;
  v[5] = 0x1p-10f;
  v[6] = 1.0f - 0x1p-10f;
  v[7] = 256.5f;
  const auto trunc = [](auto x, auto) { return decltype(x)::trunc(x); };
  expect_f32_op_matches("trunc", v, v, trunc);

  using FA = simd::VecF32<Active>;
  using FS = simd::VecF32<ScalarBackend>;
  std::vector<std::uint8_t> bytes_a(v.size()), bytes_s(v.size());
  std::vector<unsigned> mask_a, mask_s;
  for (std::size_t i = 0; i < v.size(); i += FA::kLanes) {
    FA::load(v.data() + i).store_trunc_u8(bytes_a.data() + i);
    mask_a.push_back(FA::lt_mask(FA::load(v.data() + i), FA::load(edge.data() + i)));
  }
  for (std::size_t i = 0; i < v.size(); i += FS::kLanes) {
    FS::load(v.data() + i).store_trunc_u8(bytes_s.data() + i);
  }
  for (std::size_t i = 0; i < v.size(); i += FA::kLanes) {
    unsigned m = 0;
    for (int lane = 0; lane < FA::kLanes; ++lane) {
      const std::size_t at = i + static_cast<std::size_t>(lane);
      m |= FS::lt_mask(FS::load(v.data() + at), FS::load(edge.data() + at)) << lane;
    }
    mask_s.push_back(m);
  }
  EXPECT_EQ(bytes_a, bytes_s);
  EXPECT_EQ(mask_a, mask_s);
  for (std::size_t i = 0; i < v.size(); ++i) {
    ASSERT_EQ(bytes_s[i], static_cast<std::uint8_t>(std::clamp(v[i], 0.0f, 255.0f))) << v[i];
  }

  std::vector<float> got(2 * v.size()), want(2 * v.size());
  for (std::size_t i = 0; i < v.size(); i += FA::kLanes) {
    FA::store_interleaved(FA::load(v.data() + i), FA::load(edge.data() + i), got.data() + 2 * i);
  }
  for (std::size_t i = 0; i < v.size(); ++i) {
    want[2 * i] = v[i];
    want[2 * i + 1] = edge[i];
  }
  EXPECT_EQ(got, want);
}

TEST(SimdF32, ConversionsFromDoubleMatchScalarBits) {
  // r² as the stream produces it: polar draws, r² just below 1, every power
  // of two down to 2^−106 with its neighbours, both sides of the √2 split;
  // and doubles halfway between two floats, where rounding goes to even.
  std::vector<double> r2;
  std::mt19937_64 rng(6);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  while (r2.size() < kF32Count / 2) {
    const double u = unit(rng), v = unit(rng);
    const double q = u * u + v * v;
    if (q <= 1.0 && q != 0.0) r2.push_back(q);
  }
  for (int j = 0; j < 512; ++j) r2.push_back(1.0 - j * 0x1p-53);
  for (int e = 0; e >= -106; --e) {
    const double q = std::ldexp(1.0, e);
    r2.push_back(q);
    r2.push_back(std::nextafter(q, 0.0));
    if (e == 0) continue;
    r2.push_back(std::nextafter(q, 1.0));
    r2.push_back(q * 0x1.6a09e667f3bcdp+0);
    r2.push_back(std::nextafter(q * 0x1.6a09e667f3bcdp+0, 1.0));
    r2.push_back(std::nextafter(q * 0x1.6a09e667f3bcdp+0, 0.0));
  }
  while (r2.size() % 8 != 0) r2.push_back(0.5);

  std::vector<double> halfway;
  for (int j = 0; j < 64; ++j) {
    const double base = 1.0 + j * 0x1p-23;
    halfway.push_back(base + 0x1p-24);   // a tie
    halfway.push_back(-(base + 0x1p-24));
    halfway.push_back(std::ldexp(base + 0x1p-25, -j));
  }
  while (halfway.size() % 8 != 0) halfway.push_back(0.0);

  const auto run = [](auto tag, const std::vector<double>& in, bool split) {
    using F = simd::VecF32<decltype(tag)>;
    std::vector<float> a(in.size()), b(in.size());
    for (std::size_t i = 0; i < in.size(); i += F::kLanes) {
      if (split) {
        F e{}, f{};
        F::load_log2_split(in.data() + i, e, f);
        e.store(a.data() + i);
        f.store(b.data() + i);
      } else {
        F::load_f64(in.data() + i).store(a.data() + i);
      }
    }
    std::vector<std::uint32_t> bits;
    for (const float x : a) bits.push_back(float_bits(x));
    for (const float x : b) bits.push_back(float_bits(x));
    return bits;
  };
  EXPECT_EQ(run(Active{}, halfway, false), run(ScalarBackend{}, halfway, false));
  EXPECT_EQ(run(Active{}, r2, false), run(ScalarBackend{}, r2, false));
  EXPECT_EQ(run(Active{}, r2, true), run(ScalarBackend{}, r2, true));

  // The split itself is exact: r² = 2^e·(1 + f) with 1 + f in [√½, √2].
  for (const double q : r2) {
    double e = 0.0, f = 0.0;
    simd::split_log2(q, e, f);
    ASSERT_EQ(std::ldexp(1.0 + f, static_cast<int>(e)), q) << q;
    ASSERT_GE(1.0 + f, std::sqrt(0.5)) << q;
    ASSERT_LE(1.0 + f, std::sqrt(2.0)) << q;
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
  // One RGB row into three planes. The widths straddle one and two 16-pixel
  // SSE2 blocks; the base offsets move the loads off alignment, and the
  // sentinel checks that nothing past n is written.
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
