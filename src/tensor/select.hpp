// Branch-free float selects for the elementwise layers.
//
// GCC lowers `x > 0.0f ? x : 0.0f` (and std::max(0.0f, x)) to a
// compare-and-branch per element, which mispredicts on activation data and
// blocks vectorization. These helpers compute the same comparison into an
// all-ones/all-zeros bit mask and pick the result with AND/OR on the bit
// patterns, so a loop over them compiles to packed compares and logic ops.
// map_elems / zip_elems run such loops in fixed blocks of kSelectBlock over
// __restrict pointers: a constant inner trip count and no possible aliasing
// are what GCC's -O2 cost model needs before it vectorizes a loop.
//
// Each helper returns the exact bits of the ternary it replaces, including
// the corner cases: a NaN compares false (ReLU(NaN) = +0, max keeps the
// running value), -0 is not > 0 (ReLU(-0) = +0), infinities and denormals
// pass through unchanged. Portable C++ only: intrinsics stay in the kernel
// backend (the simd-intrinsics lint rule).
#pragma once

#include <bit>
#include <cstdint>

namespace ftpim {

/// All ones when `pred`, else all zeros.
[[nodiscard]] inline std::uint32_t select_mask(bool pred) noexcept {
  return 0u - static_cast<std::uint32_t>(pred);
}

/// `pred ? a : b` on the bit patterns.
[[nodiscard]] inline float select_bits(bool pred, float a, float b) noexcept {
  const std::uint32_t m = select_mask(pred);
  return std::bit_cast<float>((std::bit_cast<std::uint32_t>(a) & m) |
                              (std::bit_cast<std::uint32_t>(b) & ~m));
}

/// `x > 0.0f ? x : 0.0f`.
[[nodiscard]] inline float relu_select(float x) noexcept {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(x) & select_mask(x > 0.0f));
}

inline constexpr std::int64_t kSelectBlock = 16;

/// out[i] = f(in[i]) for i < n; `in` and `out` must not overlap.
template <typename F>
inline void map_elems(const float* __restrict in, float* __restrict out, std::int64_t n, F f) {
  std::int64_t i = 0;
  for (; i + kSelectBlock <= n; i += kSelectBlock) {
    for (std::int64_t j = 0; j < kSelectBlock; ++j) out[i + j] = f(in[i + j]);
  }
  for (; i < n; ++i) out[i] = f(in[i]);
}

/// acc[i] = f(acc[i], in[i]) for i < n; `acc` and `in` must not overlap.
template <typename F>
inline void zip_elems(float* __restrict acc, const float* __restrict in, std::int64_t n, F f) {
  std::int64_t i = 0;
  for (; i + kSelectBlock <= n; i += kSelectBlock) {
    for (std::int64_t j = 0; j < kSelectBlock; ++j) acc[i + j] = f(acc[i + j], in[i + j]);
  }
  for (; i < n; ++i) acc[i] = f(acc[i], in[i]);
}

}  // namespace ftpim
