// Packed blocked GEMM driver — the single compute entry point behind
// ftpim::gemm / gemm_at / gemm_bt and the fused Conv2d path.
//
// Computes C = alpha * A * B + beta * C where A and B are *logical* operands
// described by PackASource / PackBSource: transposes and im2col patch
// gathering are absorbed into packing, so one macro-loop nest and one
// micro-kernel (scalar or AVX2, chosen by runtime dispatch) serve every
// caller.
//
// Structure is the classic GotoBLAS five-loop nest: NC -> KC slabs with B
// packed into kNR-column panels, MC blocks of A packed into kMR-row panels
// (alpha folded in), and an MR x NR register-tiled micro-kernel at the core.
//
// Determinism contract: results are bit-identical for any FTPIM_THREADS value
// at a fixed dispatch level. Work is split over absolute kMR-aligned
// micro-row panels of C, each owned by exactly one worker; for every C
// element, beta scaling happens once up front and K-contributions accumulate
// in ascending (pc, p) order with one read-modify-write per KC slab — a pure
// function of the problem, not of the thread partition, nor of the column
// blocking (which is why a conv lowered over a batch matches per-image calls
// bit for bit). The epilogue is elementwise and runs after an element's last
// slab. Results are NOT
// bit-identical *across* dispatch levels (the AVX2 kernel contracts
// multiply+add into FMA).
#pragma once

#include <cstdint>

#include "src/tensor/kernels/pack.hpp"

namespace ftpim::kernels {

/// Per-row transform of C, applied to each micro-tile as it leaves its last
/// K slab (so while it is still in L1):
///   v = v + bias[i];  v = scale[i] * v + shift[i];  v = v > 0 ? v : 0
/// Each stage runs only when its pointer (or `relu`) is set. This is how a
/// Conv2d carries its bias and, in eval, the BatchNorm2d and ReLU that follow
/// it, with the same float operations in the same order as those layers'
/// own forwards.
struct RowEpilogue {
  const float* bias = nullptr;
  const float* scale = nullptr;  ///< set together with shift
  const float* shift = nullptr;
  bool relu = false;
};

/// Applies e to `len` contiguous elements of C row i.
void apply_row_epilogue(const RowEpilogue& e, std::int64_t i, float* row, std::int64_t len);

/// Where C lives. Dense (group_cols == 0): C(i,j) = data[i*ld + j]. Grouped:
/// the columns come in groups of group_cols, each group its own row-major
/// [m, group_cols] block group_stride floats after the previous one:
///   C(i,j) = data[(j / group_cols) * group_stride + i*ld + j % group_cols]
/// which is the NCHW output of a conv lowered over several images at once
/// (group = image, ld = group_cols = pixels, group_stride = channels*pixels).
struct GemmOut {
  float* data = nullptr;
  std::int64_t ld = 0;
  std::int64_t group_cols = 0;
  std::int64_t group_stride = 0;
  const RowEpilogue* epilogue = nullptr;
};

/// C[m,n] = epilogue(alpha * A[m,k] * B[k,n] + beta * C), C per `c`. A and B
/// layouts per their sources.
void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                 const PackASource& a, const PackBSource& b, float beta, const GemmOut& c);

/// Dense C with leading dimension ldc (>= n), no epilogue.
inline void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                        const PackASource& a, const PackBSource& b, float beta, float* c,
                        std::int64_t ldc) {
  gemm_packed(m, n, k, alpha, a, b, beta, GemmOut{.data = c, .ld = ldc});
}

}  // namespace ftpim::kernels
