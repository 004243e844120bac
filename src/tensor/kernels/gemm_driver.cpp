#include "src/tensor/kernels/gemm_driver.hpp"

#include <algorithm>

#include "src/common/annotations.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/kernels/kernel_params.hpp"
#include "src/tensor/kernels/microkernel.hpp"
#include "src/tensor/kernels/pack_arena.hpp"
#include "src/tensor/select.hpp"

namespace ftpim::kernels {
namespace {

/// Calls fn(ptr, col, len) for each contiguous run of row i of C over columns
/// [j0, j0 + nc): `ptr` holds columns col .. col + len of that row, `col`
/// counted from j0.
template <typename Fn>
void for_each_run(const GemmOut& c, std::int64_t i, std::int64_t j0, std::int64_t nc, Fn&& fn) {
  if (c.group_cols == 0) {
    fn(c.data + i * c.ld + j0, std::int64_t{0}, nc);
    return;
  }
  for (std::int64_t j = j0; j < j0 + nc;) {
    const std::int64_t col = j % c.group_cols;
    const std::int64_t len = std::min(c.group_cols - col, j0 + nc - j);
    fn(c.data + j / c.group_cols * c.group_stride + i * c.ld + col, j - j0, len);
    j += len;
  }
}

/// C tile at (i, j) when its nr columns are contiguous in memory (leading
/// dimension c.ld); nullptr when they straddle two groups.
float* tile_at(const GemmOut& c, std::int64_t i, std::int64_t j, std::int64_t nr) {
  if (c.group_cols == 0) return c.data + i * c.ld + j;
  const std::int64_t col = j % c.group_cols;
  if (col + nr > c.group_cols) return nullptr;
  return c.data + j / c.group_cols * c.group_stride + i * c.ld + col;
}

void scale_block(const GemmOut& c, std::int64_t i_begin, std::int64_t i_end, std::int64_t j0,
                 std::int64_t nc, float beta) {
  if (beta == 1.0f) return;
  for (std::int64_t i = i_begin; i < i_end; ++i) {
    for_each_run(c, i, j0, nc, [beta](float* row, std::int64_t, std::int64_t len) {
      if (beta == 0.0f) {
        std::fill(row, row + len, 0.0f);
      } else {
        for (std::int64_t j = 0; j < len; ++j) row[j] *= beta;
      }
    });
  }
}

// The epilogue over `cols` contiguous elements of row i. Called with
// cols == kNR for whole blocks, where the fixed trip count lets -O2 vectorize.
inline void epilogue_run(const RowEpilogue& e, std::int64_t i, float* __restrict row,
                         std::int64_t cols) {
  if (e.bias != nullptr) {
    const float bv = e.bias[i];
    for (std::int64_t j = 0; j < cols; ++j) row[j] = row[j] + bv;
  }
  if (e.scale != nullptr) {
    const float g = e.scale[i];
    const float b = e.shift[i];
    for (std::int64_t j = 0; j < cols; ++j) row[j] = g * row[j] + b;
  }
  if (e.relu) {
    for (std::int64_t j = 0; j < cols; ++j) row[j] = relu_select(row[j]);
  }
}

/// Applies e to rows [i0, i0 + rows) x `cols` columns of a C tile at t.
void apply_epilogue(const RowEpilogue& e, std::int64_t i0, float* t, std::int64_t ldt,
                    std::int64_t rows, std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) apply_row_epilogue(e, i0 + r, t + r * ldt, cols);
}

}  // namespace

FTPIM_HOT void apply_row_epilogue(const RowEpilogue& e, std::int64_t i, float* row,
                                  std::int64_t len) {
  std::int64_t j = 0;
  for (; j + kNR <= len; j += kNR) epilogue_run(e, i, row + j, kNR);
  if (j < len) epilogue_run(e, i, row + j, len - j);
}

FTPIM_HOT void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, float alpha,
                           const PackASource& a, const PackBSource& b, float beta,
                           const GemmOut& c) {
  FTPIM_CHECK_GE(m, 0);
  FTPIM_CHECK_GE(n, 0);
  FTPIM_CHECK_GE(k, 0);
  FTPIM_CHECK_GE(c.ld, c.group_cols == 0 ? n : c.group_cols);
  if (m == 0 || n == 0) return;
  const RowEpilogue* epi = c.epilogue;
  if (k == 0 || alpha == 0.0f) {
    scale_block(c, 0, m, 0, n, beta);
    if (epi == nullptr) return;
    for (std::int64_t i = 0; i < m; ++i) {
      for_each_run(c, i, 0, n, [&](float* row, std::int64_t, std::int64_t len) {
        apply_row_epilogue(*epi, i, row, len);
      });
    }
    return;
  }

  const MicroKernel uk = select_micro_kernel(active_kernel_level());
  const std::int64_t kc_max = std::min<std::int64_t>(k, kKC);
  const std::int64_t nc_max = std::min<std::int64_t>(n, kNC);
  const std::int64_t mc_max = std::min<std::int64_t>(m, kMC);
  const std::size_t b_elems =
      static_cast<std::size_t>(ceil_div(nc_max, kNR) * kNR * kc_max);
  const std::size_t a_elems =
      static_cast<std::size_t>(ceil_div(mc_max, kMR) * kMR * kc_max);

  // One micro-tile: C(i.., j..) += A~ panel * B~ panel, then the epilogue
  // after the last K slab. A tile whose columns straddle two groups of a
  // grouped C runs on a bounce copy, so the micro-kernel always sees one
  // strided block and every element keeps its K order.
  const auto tile = [&](std::int64_t kc, const float* a_panel, const float* b_panel,
                        std::int64_t i, std::int64_t j, std::int64_t mr, std::int64_t nr,
                        bool last_slab) {
    if (float* ct = tile_at(c, i, j, nr); ct != nullptr) {
      uk(kc, a_panel, b_panel, ct, c.ld, mr, nr);
      if (last_slab && epi != nullptr) apply_epilogue(*epi, i, ct, c.ld, mr, nr);
      return;
    }
    float bounce[kMR * kNR];
    for (std::int64_t r = 0; r < mr; ++r) {
      for_each_run(c, i + r, j, nr, [&](float* run, std::int64_t col, std::int64_t len) {
        std::copy_n(run, len, bounce + r * kNR + col);
      });
    }
    uk(kc, a_panel, b_panel, bounce, kNR, mr, nr);
    if (last_slab && epi != nullptr) apply_epilogue(*epi, i, bounce, kNR, mr, nr);
    for (std::int64_t r = 0; r < mr; ++r) {
      for_each_run(c, i + r, j, nr, [&](float* run, std::int64_t col, std::int64_t len) {
        std::copy_n(bounce + r * kNR + col, len, run);
      });
    }
  };

  // Each worker owns a contiguous range of absolute kMR-aligned micro-row
  // panels of C and runs the full NC/KC loop nest over its rows, packing its
  // own copy of B. Packing work for B is duplicated across workers; with a
  // shared pack the slab would need a barrier per (jc, pc) and the splitter
  // spawns threads per region, so per-worker packs are both simpler and
  // cheaper at the core counts this repo targets.
  const auto worker = [&](std::size_t panel_begin, std::size_t panel_end) {
    const std::int64_t i_begin = static_cast<std::int64_t>(panel_begin) * kMR;
    const std::int64_t i_end =
        std::min<std::int64_t>(m, static_cast<std::int64_t>(panel_end) * kMR);
    if (i_begin >= i_end) return;

    PackArena& arena = PackArena::local();
    float* bbuf = arena.b_buffer(b_elems);
    float* abuf = arena.a_buffer(a_elems);

    for (std::int64_t jc = 0; jc < n; jc += kNC) {
      const std::int64_t nc = std::min<std::int64_t>(kNC, n - jc);
      scale_block(c, i_begin, i_end, jc, nc, beta);
      for (std::int64_t pc = 0; pc < k; pc += kKC) {
        const std::int64_t kc = std::min<std::int64_t>(kKC, k - pc);
        const bool last_slab = pc + kc == k;
        pack_b_block(b, pc, kc, jc, nc, bbuf);
        for (std::int64_t ic = i_begin; ic < i_end; ic += kMC) {
          const std::int64_t mc = std::min<std::int64_t>(kMC, i_end - ic);
          pack_a_block(a, ic, mc, pc, kc, alpha, abuf);
          for (std::int64_t jr = 0; jr < nc; jr += kNR) {
            const std::int64_t nr_eff = std::min<std::int64_t>(kNR, nc - jr);
            const float* b_panel = bbuf + (jr / kNR) * kc * kNR;
            for (std::int64_t ir = 0; ir < mc; ir += kMR) {
              const std::int64_t mr_eff = std::min<std::int64_t>(kMR, mc - ir);
              tile(kc, abuf + (ir / kMR) * kc * kMR, b_panel, ic + ir, jc + jr, mr_eff, nr_eff,
                   last_slab);
            }
          }
        }
      }
    }
  };

  const std::int64_t row_panels = ceil_div(m, kMR);
  const bool go_parallel =
      row_panels >= 2 && 2.0 * static_cast<double>(m) * static_cast<double>(n) *
                                 static_cast<double>(k) >=
                             kMinParallelFlops;
  if (go_parallel) {
    parallel_for_chunks(0, static_cast<std::size_t>(row_panels), worker,
                        /*min_parallel_trip=*/2);
  } else {
    worker(0, static_cast<std::size_t>(row_panels));
  }
}

}  // namespace ftpim::kernels
