#include "synth/rng.hpp"

#include "core/simd.hpp"

namespace slj::synth {

namespace {

/// cur[k] = twist(cur[k], next[k], far[k]) for whole vectors of k from 0,
/// returning how many words it twisted (a multiple of Backend::kLanes not
/// above count). A vector loads next[k … k + kLanes) before it stores, so
/// where next is cur + 1 every step still reads its successor untwisted, as
/// the serial loop does.
template <class Backend>
std::size_t twist_run(std::uint32_t* cur, const std::uint32_t* next, const std::uint32_t* far,
                      std::size_t count) {
  using V = simd::VecU32<Backend>;
  const V upper = V::broadcast(0x80000000u);
  const V lower = V::broadcast(0x7fffffffu);
  const V one = V::broadcast(1u);
  const V zero = V::broadcast(0u);
  const V matrix = V::broadcast(0x9908b0dfu);
  std::size_t k = 0;
  for (; k + V::kLanes <= count; k += V::kLanes) {
    const V y = (V::load(cur + k) & upper) | (V::load(next + k) & lower);
    const V mixed = V::load(far + k) ^ y.template shr<1>() ^ ((zero - (y & one)) & matrix);
    mixed.store(cur + k);
  }
  return k;
}

/// twist_run over all count words of a run whose successor is the next
/// word, the tail on the scalar backend.
template <class Backend>
void twist_all(std::uint32_t* cur, const std::uint32_t* far, std::size_t count) {
  const std::size_t k = twist_run<Backend>(cur, cur + 1, far, count);
  twist_run<simd::ScalarBackend>(cur + k, cur + k + 1, far + k, count - k);
}

/// One MT19937 generation. Steps [0, n − m) read their far word m ahead,
/// not yet twisted; steps [n − m, n − 1) read it n − m behind, twisted
/// already because a vector spans fewer than n − m words; the last step
/// wraps round to state[0].
template <class Backend>
void twist(std::uint32_t* state, std::size_t n, std::size_t m) {
  twist_all<Backend>(state, state + m, n - m);
  twist_all<Backend>(state + (n - m), state, m - 1);
  twist_run<simd::ScalarBackend>(state + (n - 1), state, state + (m - 1), 1);
}

/// The MT19937 output tempering of n words, n a multiple of Backend::kLanes.
template <class Backend>
void temper(const std::uint32_t* state, std::uint32_t* block, std::size_t n) {
  using V = simd::VecU32<Backend>;
  const V b = V::broadcast(0x9d2c5680u);
  const V c = V::broadcast(0xefc60000u);
  for (std::size_t i = 0; i < n; i += V::kLanes) {
    V y = V::load(state + i);
    y = y ^ y.template shr<11>();
    y = y ^ (y.template shl<7>() & b);
    y = y ^ (y.template shl<15>() & c);
    y = y ^ y.template shr<18>();
    y.store(block + i);
  }
}

/// units[j] = 2·canonical(words[2j], words[2j + 1]) − 1 for j in
/// [0, count), count a multiple of Backend::kLanes. As `canonical` computes
/// it: (lo + hi·2^32)·2^−64 (a power-of-two scale, exact like canonical's
/// division), clamped below 1.
template <class Backend>
void decode_units(const std::uint32_t* words, double* units, std::size_t count) {
  using F = simd::VecF64<Backend>;
  const F two32 = F::broadcast(0x1p32);
  const F two_m64 = F::broadcast(0x1p-64);
  const F below_one = F::broadcast(0x1.fffffffffffffp-1);
  const F two = F::broadcast(2.0);
  const F one = F::broadcast(1.0);
  for (std::size_t j = 0; j < count; j += F::kLanes) {
    F lo{}, hi{};
    F::load_u32_pairs(words + 2 * j, lo, hi);
    const F u = F::min((lo + hi * two32) * two_m64, below_one);
    (two * u - one).store(units + j);
  }
}

}  // namespace

void Rng::refill() {
  static_assert(kN % simd::VecU32<simd::Active>::kLanes == 0);
  twist<simd::Active>(state_.data(), kN, kM);
  temper<simd::Active>(state_.data(), block_.data(), kN);
  next_ = 0;
  decoded_ = false;
}

void Rng::decode() {
  static_assert(kN / 2 % simd::VecF64<simd::Active>::kLanes == 0);
  decode_units<simd::Active>(block_.data(), units_.data(), units_.size());
  decoded_ = true;
}

void polar_pairs(Rng& rng, std::size_t n, double* x, double* y, double* r2) {
  std::size_t done = 0;
  while (done < n) {
    if (rng.next_ == Rng::kN) rng.refill();
    if (rng.next_ % 2 != 0 || Rng::kN - rng.next_ < 4) {
      const PolarPair p = polar_pair(rng);
      x[done] = p.x;
      y[done] = p.y;
      r2[done] = p.r2;
      ++done;
      continue;
    }
    if (!rng.decoded_) rng.decode();
    // Every attempt takes four words, accepted or not, so the attempts sit
    // at j, j + 2, … in units_; each is written out and kept by advancing
    // `done` only if polar_pair would accept it (0 < r² ≤ 1).
    const double* units = rng.units_.data();
    std::size_t j = rng.next_ / 2;
    for (; j + 1 < rng.units_.size() && done < n; j += 2) {
      const double u = units[j];
      const double v = units[j + 1];
      const double q = u * u + v * v;
      x[done] = u;
      y[done] = v;
      r2[done] = q;
      done += static_cast<std::size_t>((q <= 1.0) & (q != 0.0));
    }
    rng.next_ = 2 * j;
  }
}

}  // namespace slj::synth
