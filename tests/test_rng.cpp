#include "synth/rng.hpp"

#include <gtest/gtest.h>

#include <random>

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

}  // namespace
}  // namespace slj::synth
