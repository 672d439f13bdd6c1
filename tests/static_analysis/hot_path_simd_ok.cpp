// Lint fixture: the sanctioned SIMD dispatch idiom. The kernel is templated
// on a backend tag and the call site picks slj::simd::Active — the one
// alias core/simd.hpp resolves from the feature macros. No macro appears
// here and the hot body is a single preprocessor-free code path, so
// slj_lint MUST pass this file; a false positive means the simd-dispatch
// rule broke the real kernels' idiom.
#include <cstddef>
#include <cstdint>

#include "core/annotations.hpp"
#include "core/simd.hpp"

namespace {

template <class B>
void threshold_impl(const std::uint16_t* src, std::uint8_t* dst, std::size_t n,
                    std::uint16_t threshold) {
  using V = slj::simd::VecU16<B>;
  const V vth = V::broadcast(threshold);
  std::size_t i = 0;
  for (; i + V::kLanes <= n; i += V::kLanes) {
    V::store_gt01(V::load(src + i), vth, dst + i);
  }
  for (; i < n; ++i) dst[i] = src[i] > threshold ? 1 : 0;
}

}  // namespace

SLJ_HOT_PATH void threshold_into(const std::uint16_t* src, std::uint8_t* dst, std::size_t n,
                                 std::uint16_t threshold) {
  threshold_impl<slj::simd::Active>(src, dst, n, threshold);
}
