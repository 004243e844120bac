#include "src/reram/crossbar_engine.hpp"

#include "src/common/annotations.hpp"
#include "src/common/check.hpp"

#include <algorithm>

#include "src/tensor/kernels/gemm_driver.hpp"
#include "src/tensor/kernels/pack_arena.hpp"

namespace ftpim {

CrossbarEngine::CrossbarEngine(const Tensor& weights, const CrossbarEngineConfig& config,
                               float w_max)
    : config_(config) {
  FTPIM_CHECK(!(weights.rank() != 2), "CrossbarEngine: [out,in] matrix required");
  FTPIM_CHECK(!(config.tile_rows <= 0 || config.tile_cols <= 1 || config.tile_cols % 2 != 0), "CrossbarEngine: tile_cols must be even and positive");
  out_ = weights.dim(0);
  in_ = weights.dim(1);
  w_max_ = w_max > 0.0f ? w_max : full_scale_of(weights);
  outs_per_tile_ = config.tile_cols / 2;
  row_tiles_ = (in_ + config.tile_rows - 1) / config.tile_rows;
  col_tiles_ = (out_ + outs_per_tile_ - 1) / outs_per_tile_;

  tiles_.reserve(static_cast<std::size_t>(row_tiles_ * col_tiles_));
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      tiles_.emplace_back(config.tile_rows, config.tile_cols, kDeviceRange, config.quant_levels);
    }
  }

  const DifferentialMapper mapper(kDeviceRange, w_max_);
  for (std::int64_t o = 0; o < out_; ++o) {
    const std::int64_t ct = o / outs_per_tile_;
    const std::int64_t local_o = o % outs_per_tile_;
    for (std::int64_t i = 0; i < in_; ++i) {
      const std::int64_t rt = i / config.tile_rows;
      const std::int64_t local_r = i % config.tile_rows;
      const CellPair cells = mapper.to_cells(weights.at(o, i));
      CrossbarArray& t = tile(rt, ct);
      t.program(local_r, 2 * local_o, cells.g_pos);
      t.program(local_r, 2 * local_o + 1, cells.g_neg);
    }
  }
}

std::int64_t CrossbarEngine::total_cells() const noexcept {
  std::int64_t n = 0;
  for (const CrossbarArray& t : tiles_) n += t.cell_count();
  return n;
}

std::int64_t CrossbarEngine::stuck_cells() const noexcept {
  std::int64_t n = 0;
  for (const CrossbarArray& t : tiles_) n += t.stuck_count();
  return n;
}

void CrossbarEngine::apply_device_defects(const StuckAtFaultModel& model,
                                          std::uint64_t master_seed,
                                          std::uint64_t device_index) {
  // Same salted stream as QuantizedCrossbarEngine's data cells, so the two
  // engines build the same die from one (master_seed, device_index).
  Rng rng(derive_seed(master_seed, device_index + 0xcba));
  for (CrossbarArray& t : tiles_) {
    t.apply_defects(DefectMap::sample(t.cell_count(), model, rng));
  }
}

void CrossbarEngine::clear_defects() {
  for (CrossbarArray& t : tiles_) t.clear_defects();
}

FTPIM_HOT void CrossbarEngine::mvm(const float* x, float* y) const { mvm_batch(x, 1, y); }

FTPIM_HOT void CrossbarEngine::mvm_batch(const float* x, std::int64_t batch, float* y) const {
  FTPIM_CHECK_GE(batch, 0);
  if (batch == 0) return;
  std::fill(y, y + batch * out_, 0.0f);
  const std::int64_t tc = config_.tile_cols;
  const float g_to_w = w_max_ / kDeviceRange.span();
  // Column currents live in arena scratch (slot 2 — disjoint from the conv
  // dX slab in slot 0), so steady-state serving allocates nothing here.
  kernels::PackArena& arena = kernels::PackArena::local();
  float* currents = arena.scratch_buffer(2, static_cast<std::size_t>(batch * tc));

  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    const std::int64_t base = rt * config_.tile_rows;
    const std::int64_t valid = std::min(config_.tile_rows, in_ - base);
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      // currents[batch, tile_cols] = X[:, base:base+valid] * G[0:valid, :].
      // Rows past `valid` carry zero drive in the analog model, so k = valid.
      const kernels::PackASource a{x + base, in_, kernels::PackASource::Layout::kRowMajor};
      const kernels::PackBSource b{tile(rt, ct).conductance_data(), tc, nullptr,
                                   kernels::PackBSource::Layout::kRowMajor};
      kernels::gemm_packed(batch, tc, valid, 1.0f, a, b, 0.0f, currents, tc);
      const std::int64_t out_base = ct * outs_per_tile_;
      const std::int64_t out_count = std::min(outs_per_tile_, out_ - out_base);
      for (std::int64_t bi = 0; bi < batch; ++bi) {
        const float* cur = currents + bi * tc;
        float* yrow = y + bi * out_;
        for (std::int64_t o = 0; o < out_count; ++o) {
          yrow[out_base + o] += (cur[2 * o] - cur[2 * o + 1]) * g_to_w;
        }
      }
    }
  }
}

Tensor CrossbarEngine::read_back() const {
  Tensor w(Shape{out_, in_});
  const float g_to_w = w_max_ / kDeviceRange.span();
  for (std::int64_t o = 0; o < out_; ++o) {
    const std::int64_t ct = o / outs_per_tile_;
    const std::int64_t local_o = o % outs_per_tile_;
    for (std::int64_t i = 0; i < in_; ++i) {
      const std::int64_t rt = i / config_.tile_rows;
      const std::int64_t local_r = i % config_.tile_rows;
      const CrossbarArray& t = tile(rt, ct);
      w.at(o, i) = (t.read(local_r, 2 * local_o) - t.read(local_r, 2 * local_o + 1)) * g_to_w;
    }
  }
  return w;
}

}  // namespace ftpim
