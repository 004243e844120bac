// Runtime kernel-level dispatch for the packed GEMM backend.
//
// The backend ships one micro-kernel per level; everything above it (packing,
// macro loops, parallel partitioning) is level-independent. The active level
// is resolved once from the environment and the CPU:
//
//   FTPIM_KERNEL=scalar   force the portable fallback (CI runs this leg so
//                         the fallback stays tested on AVX2 machines)
//   FTPIM_KERNEL=avx2     request the AVX2/FMA micro-kernel; silently falls
//                         back to scalar when the CPU or build lacks support
//   (unset)               best level the host supports
//
// Results are bit-identical across FTPIM_THREADS for a fixed level, but NOT
// across levels (FMA contracts the multiply-add rounding), which is why the
// level is pinned per process rather than per call. Tests switch levels at
// runtime through set_kernel_level(); the override is a release/acquire
// atomic following the set_num_threads() convention.
#pragma once

namespace ftpim::kernels {

enum class KernelLevel : int {
  kScalar = 0,  ///< portable C++, any target
  kAvx2 = 1,    ///< AVX2 + FMA register-tiled micro-kernel
};

/// The level every gemm/conv entry point will use right now: the test
/// override if set, else the cached FTPIM_KERNEL/CPUID resolution. The first
/// call resolves FTPIM_KERNEL strictly — an unknown value throws
/// ContractViolation (see parse_kernel_env_strict) instead of silently
/// running the best level under a name the user never asked for.
[[nodiscard]] KernelLevel active_kernel_level();

/// Overrides the dispatch level at runtime (for tests comparing levels and
/// benches recording both). Requesting kAvx2 on a host without AVX2/FMA
/// support pins kScalar instead — the override never selects an
/// unrunnable kernel.
void set_kernel_level(KernelLevel level) noexcept;

/// Clears the override, returning to the FTPIM_KERNEL / CPUID default.
void clear_kernel_level_override() noexcept;

/// "scalar" / "avx2" — for bench records and logs.
[[nodiscard]] const char* kernel_level_name(KernelLevel level) noexcept;

/// True when the AVX2 micro-kernel was compiled in AND this CPU reports
/// AVX2+FMA. The dispatcher never returns kAvx2 when this is false.
[[nodiscard]] bool avx2_available() noexcept;

/// Parses an FTPIM_KERNEL-style string: nullptr/empty returns `fallback`
/// (the knob is optional), "scalar"/"avx2" resolve ("avx2" clamps to scalar
/// on hosts without support — a capability limit, not a typo), and anything
/// else throws
/// ContractViolation naming the offending text. Exposed for unit tests; the
/// cached resolution behind active_kernel_level() makes the env read itself
/// hard to exercise twice in one process.
[[nodiscard]] KernelLevel parse_kernel_env_strict(const char* value, KernelLevel fallback);

}  // namespace ftpim::kernels
