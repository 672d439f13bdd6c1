#include "synth/rng.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

namespace slj::synth {
namespace {

constexpr std::uint32_t kSeeds[] = {0u, 1u, 5489u, 2008u, 123456789u, 0xffffffffu};

TEST(Rng, TenThousandthOutputOfDefaultSeedIsStandard) {
  // [rand.predef]: the 10000th consecutive invocation of a default-constructed
  // mt19937 produces 4123659995.
  Rng rng;
  for (int i = 1; i < 10000; ++i) rng();
  EXPECT_EQ(rng(), 4123659995u);
}

TEST(Rng, MatchesStdMt19937OverSeveralBlocks) {
  for (const std::uint32_t seed : kSeeds) {
    Rng ours(seed);
    std::mt19937 ref(seed);
    for (int i = 0; i < 3 * 624 + 7; ++i) {
      ASSERT_EQ(ours(), ref()) << "seed " << seed << " draw " << i;
    }
  }
}

// The real-valued draws replicate libstdc++, which the corpus was first
// rendered with; these pin the replicas to the library's own objects.
TEST(Rng, CanonicalMatchesGenerateCanonical) {
  for (const std::uint32_t seed : kSeeds) {
    Rng ours(seed);
    std::mt19937 ref(seed);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(canonical(ours), (std::generate_canonical<double, 53>(ref))) << "seed " << seed;
    }
  }
}

TEST(Rng, NormalMatchesStdNormalDistribution) {
  for (const std::uint32_t seed : kSeeds) {
    Rng ours(seed);
    std::mt19937 ref(seed);
    // Two interleaved objects, as Track::jitter uses them: each keeps its own
    // saved second normal.
    Normal a(0.0, 3.5), b(1.38, 0.07);
    std::normal_distribution<double> ref_a(0.0, 3.5), ref_b(1.38, 0.07);
    for (int i = 0; i < 2000; ++i) {
      ASSERT_EQ(a(ours), ref_a(ref)) << "seed " << seed << " draw " << i;
      if (i % 3 == 0) {
        ASSERT_EQ(b(ours), ref_b(ref)) << "seed " << seed << " draw " << i;
      }
    }
  }
}

TEST(Rng, UniformRealMatchesStdUniformRealDistribution) {
  for (const std::uint32_t seed : kSeeds) {
    Rng ours(seed);
    std::mt19937 ref(seed);
    const UniformReal u(1.00, 1.30);
    std::uniform_real_distribution<double> ref_u(1.00, 1.30);
    for (int i = 0; i < 2000; ++i) ASSERT_EQ(u(ours), ref_u(ref)) << "seed " << seed;
  }
}

TEST(Rng, PolarPairsEqualsSinglePolarPairCalls) {
  // Word offsets 0–3 into a block (1 and 3 are odd: every attempt takes the
  // single-draw path) and 620–623, just before a refill, where an attempt
  // straddles two blocks. 69 120 pairs are one 288×160 frame's worth.
  constexpr std::size_t kCounts[] = {0, 1, 155, 156, 157, 1000, 69120};
  constexpr int kOffsets[] = {0, 1, 2, 3, 620, 621, 622, 623};
  for (const std::uint32_t seed : {1u, 2008u}) {
    for (const int offset : kOffsets) {
      for (const std::size_t n : kCounts) {
        Rng bulk(seed), single(seed);
        for (int i = 0; i < offset; ++i) {
          bulk();
          single();
        }
        std::vector<double> x(n), y(n), r2(n);
        polar_pairs(bulk, n, x.data(), y.data(), r2.data());
        SCOPED_TRACE("seed " + std::to_string(seed) + " offset " + std::to_string(offset) +
                     " n " + std::to_string(n));
        for (std::size_t i = 0; i < n; ++i) {
          const PolarPair p = polar_pair(single);
          ASSERT_EQ(x[i], p.x) << "pair " << i;
          ASSERT_EQ(y[i], p.y) << "pair " << i;
          ASSERT_EQ(r2[i], p.r2) << "pair " << i;
        }
        for (int i = 0; i < 1000; ++i) ASSERT_EQ(bulk(), single()) << "raw draw " << i;
      }
    }
  }
}

TEST(Rng, PolarPairsInterleavesWithSingleDraws) {
  // The renderer's pattern: bulk runs of pairs, then a person pixel's pairs
  // and speckle uniform, within one decoded block and across refills.
  Rng bulk(7), single(7);
  std::vector<double> x(300), y(300), r2(300);
  for (int round = 0; round < 400; ++round) {
    const auto n = static_cast<std::size_t>(round % 7 == 0 ? 300 : round % 5);
    polar_pairs(bulk, n, x.data(), y.data(), r2.data());
    for (std::size_t i = 0; i < n; ++i) {
      const PolarPair p = polar_pair(single);
      ASSERT_EQ(x[i], p.x) << "round " << round << " pair " << i;
      ASSERT_EQ(y[i], p.y) << "round " << round << " pair " << i;
      ASSERT_EQ(r2[i], p.r2) << "round " << round << " pair " << i;
    }
    ASSERT_EQ(canonical(bulk), canonical(single)) << "round " << round;
  }
  EXPECT_EQ(bulk(), single());
}

}  // namespace
}  // namespace slj::synth
