// The synthetic corpus's one source of randomness, pinned to a fixed stream.
//
// `Rng` is MT19937 exactly as [rand.predef] specifies `std::mt19937`, so it
// yields the same 32-bit outputs for the same seed. It keeps its state in
// `uint32_t` words and twists and tempers a whole 624-word block per refill;
// libstdc++'s engine holds 64-bit `uint_fast32_t` words on x86-64, and a raw
// call measured ~4x slower there (9.5 vs 2.2 ns, GCC 12 -O2, 4-core KVM).
//
// The real-valued draws on top of it replicate libstdc++'s algorithms bit for
// bit (`generate_canonical<double, 53>`, the polar method of
// `normal_distribution<double>`, and `uniform_real_distribution<double>`), so
// the corpus no longer depends on the standard library's implementation-
// defined distributions yet renders byte-identical to the libstdc++ output it
// was first pinned against.
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
  static constexpr std::size_t kN = 624;
  static constexpr std::size_t kM = 397;

  static std::uint32_t twist(std::uint32_t cur, std::uint32_t next, std::uint32_t far) {
    const std::uint32_t y = (cur & 0x80000000u) | (next & 0x7fffffffu);
    return far ^ (y >> 1) ^ ((0u - (y & 1u)) & 0x9908b0dfu);
  }

  /// Twists the state one generation and tempers it into the output block.
  void refill() {
    for (std::size_t i = 0; i < kN - kM; ++i) {
      state_[i] = twist(state_[i], state_[i + 1], state_[i + kM]);
    }
    for (std::size_t i = kN - kM; i < kN - 1; ++i) {
      state_[i] = twist(state_[i], state_[i + 1], state_[i + kM - kN]);
    }
    state_[kN - 1] = twist(state_[kN - 1], state_[0], state_[kM - 1]);
    for (std::size_t i = 0; i < kN; ++i) {
      std::uint32_t y = state_[i];
      y ^= y >> 11;
      y ^= (y << 7) & 0x9d2c5680u;
      y ^= (y << 15) & 0xefc60000u;
      y ^= y >> 18;
      block_[i] = y;
    }
    next_ = 0;
  }

  std::array<std::uint32_t, kN> state_{};
  std::array<std::uint32_t, kN> block_{};
  std::size_t next_ = kN;
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
