// The synthetic corpus's one source of randomness, pinned to a fixed stream.
//
// `Rng` is MT19937 exactly as [rand.predef] specifies `std::mt19937`, so it
// yields the same 32-bit outputs for the same seed. It keeps its state in
// `uint32_t` words and twists and tempers a whole 624-word block per refill,
// in VecU32 lanes of core/simd.hpp (four on SSE2: the twist reads each
// `state[i + 1]` before its own step writes it, and `state[i + kM − kN]`
// after); libstdc++'s engine holds 64-bit `uint_fast32_t` words on x86-64,
// and a raw call measured ~4x slower there (9.5 vs 2.2 ns, GCC 12 -O2, 4-core
// KVM).
//
// The real-valued draws on top of it replicate libstdc++'s algorithms bit for
// bit (`generate_canonical<double, 53>`, the polar method of
// `normal_distribution<double>`, and `uniform_real_distribution<double>`), so
// the corpus no longer depends on the standard library's implementation-
// defined distributions yet renders byte-identical to the libstdc++ output it
// was first pinned against.
//
// `polar_pairs` is the renderer's bulk form of `polar_pair`: it decodes a
// block once into its 2u − 1 values (VecF64 lanes) and keeps the accepted
// attempts without a branch per attempt. One 288×160 frame's 69 120 pairs
// take ≈0.62 ms that way against ≈1.16 ms as single `polar_pair` calls
// (BM_PolarPairs in bench/perf_micro.cpp, medians of 5; GCC 12 -O2, SSE2,
// 4-core 2.1 GHz x86-64 KVM guest). That walk is three costs of about the
// same size: the 564 refills (twist and temper) ≈0.23 ms, their decode into
// units ≈0.14 ms, and the accept loop ≈0.16 ms (medians of 15, each part
// timed alone over a frame's worth of blocks, same host).
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace slj::synth {

class Rng {
 public:
  using result_type = std::uint32_t;
  static constexpr result_type default_seed = 5489u;

  explicit Rng(result_type seed = default_seed) {
    state_[0] = seed;
    for (std::uint32_t i = 1; i < kN; ++i) {
      state_[i] = 1812433253u * (state_[i - 1] ^ (state_[i - 1] >> 30)) + i;
    }
  }

  result_type operator()() {
    if (next_ == kN) refill();
    return block_[next_++];
  }

 private:
  friend void polar_pairs(Rng& rng, std::size_t n, double* x, double* y, double* r2);

  static constexpr std::size_t kN = 624;
  static constexpr std::size_t kM = 397;

  /// Twists the state one generation and tempers it into the output block.
  void refill();
  /// Fills units_ from the current block.
  void decode();

  std::array<std::uint32_t, kN> state_{};
  std::array<std::uint32_t, kN> block_{};
  std::size_t next_ = kN;
  // The current block as polar_pairs reads it, filled on its first call after
  // a refill: units_[j] is 2u − 1 for the canonical draw at words 2j, 2j + 1,
  // so the polar attempt that starts at word 2j is (units_[j], units_[j + 1]).
  std::array<double, kN / 2> units_{};
  bool decoded_ = false;
};

/// Uniform double in [0, 1): `std::generate_canonical<double, 53>` over two
/// draws, low word first, clamped below 1 as libstdc++ does.
inline double canonical(Rng& rng) {
  const double lo = rng();
  const double hi = rng();
  const double u = (lo + hi * 0x1p32) / 0x1p64;
  return u < 1.0 ? u : 0x1.fffffffffffffp-1;  // nextafter(1.0, 0.0)
}

/// One accepted draw of the polar method: a point strictly inside the unit
/// circle and its squared radius. Both standard normals follow from it as
/// `y * polar_scale(r2)` (returned first) and `x * polar_scale(r2)` (saved).
struct PolarPair {
  double x = 0.0;
  double y = 0.0;
  double r2 = 0.0;
};

inline PolarPair polar_pair(Rng& rng) {
  PolarPair p;
  do {
    p.x = 2.0 * canonical(rng) - 1.0;
    p.y = 2.0 * canonical(rng) - 1.0;
    p.r2 = p.x * p.x + p.y * p.y;
  } while (p.r2 > 1.0 || p.r2 == 0.0);
  return p;
}

/// n accepted polar draws, the i-th as (x[i], y[i], r2[i]): exactly what n
/// `polar_pair` calls return, leaving `rng` where they leave it. An attempt
/// at an odd word offset or one that straddles a refill takes `polar_pair`.
void polar_pairs(Rng& rng, std::size_t n, double* x, double* y, double* r2);

inline double polar_scale(double r2) { return std::sqrt(-2.0 * std::log(r2) / r2); }

/// `std::normal_distribution<double>` as libstdc++ implements it. Like the
/// standard object, each instance keeps the second normal of its last pair.
class Normal {
 public:
  Normal(double mean, double stddev) : mean_(mean), stddev_(stddev) {}

  double operator()(Rng& rng) {
    double v = saved_;
    if (has_saved_) {
      has_saved_ = false;
    } else {
      const PolarPair p = polar_pair(rng);
      const double m = polar_scale(p.r2);
      saved_ = p.x * m;
      has_saved_ = true;
      v = p.y * m;
    }
    return v * stddev_ + mean_;
  }

 private:
  double mean_;
  double stddev_;
  double saved_ = 0.0;
  bool has_saved_ = false;
};

/// `std::uniform_real_distribution<double>(a, b)` as libstdc++ implements it.
class UniformReal {
 public:
  UniformReal(double a, double b) : a_(a), b_(b) {}

  double operator()(Rng& rng) const { return canonical(rng) * (b_ - a_) + a_; }

 private:
  double a_;
  double b_;
};

}  // namespace slj::synth
