#include "src/reram/qinfer/quantized_engine.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/annotations.hpp"
#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/reram/quantizer.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/kernels/pack_arena.hpp"
#include "src/tensor/kernels/qgemm.hpp"

namespace ftpim::qinfer {

namespace {

/// Packed width of a tile computing n columns: whole kQNR-column panels, so
/// the kernel never takes its edge-panel path. Pad columns are dead zeros.
std::int64_t panel_width(std::int64_t n) {
  return kernels::ceil_div(n, kernels::kQNR) * kernels::kQNR;
}

}  // namespace

void QuantizedEngineConfig::validate() const {
  FTPIM_CHECK(tile_rows > 0 && tile_rows % 2 == 0,
              "QuantizedEngineConfig: tile_rows must be even and positive");
  // Keeps the worst-case int32 column sum (127 * 255 * tile_rows) and the
  // ADC reconstruction bound inside int32 — see qgemm.hpp and adc.hpp.
  FTPIM_CHECK(tile_rows <= 65536, "QuantizedEngineConfig: tile_rows must be <= 65536");
  FTPIM_CHECK(tile_cols > 1 && tile_cols % 2 == 0,
              "QuantizedEngineConfig: tile_cols must be even and positive");
  FTPIM_CHECK(levels >= 2 && levels <= 256,
              "QuantizedEngineConfig: levels must be in [2, 256] (uint8 level storage)");
  adc.validate();
  if (abft.enabled) {
    // The checksum readout sum_k L^k * A*_k must stay inside int64: the
    // largest digit-column accumulator is 127 * 255 * tile_rows and the digit
    // weights sum to less than L^(digits+1) / (L - 1) <= 2 * L * (L-1) * tile_cols.
    const double weight_sum =
        2.0 * levels * (levels - 1) * static_cast<double>(tile_cols);
    const double worst = weight_sum * 127.0 * 255.0 * static_cast<double>(tile_rows);
    FTPIM_CHECK(worst < 4.0e18,
                "QuantizedEngineConfig: tile too large for an int64-exact ABFT checksum");
  }
}

QuantizedCrossbarEngine::QuantizedCrossbarEngine(const Tensor& weights,
                                                 const QuantizedEngineConfig& config, float w_max)
    : config_(config) {
  FTPIM_CHECK(!(weights.rank() != 2), "QuantizedCrossbarEngine: [out,in] matrix required");
  config_.validate();
  out_ = weights.dim(0);
  in_ = weights.dim(1);
  w_max_ = w_max > 0.0f ? w_max : full_scale_of(weights);
  outs_per_tile_ = config_.tile_cols / 2;
  row_tiles_ = (in_ + config_.tile_rows - 1) / config_.tile_rows;
  col_tiles_ = (out_ + outs_per_tile_ - 1) / outs_per_tile_;
  check_cols_ =
      config_.abft.enabled ? abft::checksum_digit_columns(config_.levels, config_.tile_cols) : 0;

  tiles_.resize(static_cast<std::size_t>(row_tiles_ * col_tiles_));
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    const auto rows = static_cast<std::size_t>(valid_rows_of(rt));
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      Tile& t = tile(rt, ct);
      const auto cells = rows * static_cast<std::size_t>(config_.tile_cols);
      t.level.assign(cells, 0);  // unprogrammed cells rest at level 0 (g_min)
      t.fault.assign(cells, 0);
      if (check_cols_ > 0) {
        t.check_level.assign(rows * static_cast<std::size_t>(check_cols_), 0);
        t.check_fault.assign(rows * static_cast<std::size_t>(check_cols_), 0);
      }
    }
  }
  if (check_cols_ > 0) abft_.reset(row_tiles_, col_tiles_);

  // Program: weight -> differential conductance pair -> nearest level index.
  // level_index(to_cells(w)) is exactly the value CrossbarArray::program
  // stores when quant_levels == levels, so the two engines hold the same
  // discretized device state.
  const DifferentialMapper mapper(kDeviceRange, w_max_);
  const ConductanceQuantizer quantizer(kDeviceRange, config_.levels);
  for (std::int64_t o = 0; o < out_; ++o) {
    const std::int64_t ct = o / outs_per_tile_;
    const std::int64_t local_o = o % outs_per_tile_;
    for (std::int64_t i = 0; i < in_; ++i) {
      const std::int64_t rt = i / config_.tile_rows;
      const std::int64_t local_r = i % config_.tile_rows;
      const CellPair pair = mapper.to_cells(weights.at(o, i));
      Tile& t = tile(rt, ct);
      const std::size_t base = static_cast<std::size_t>(local_r * config_.tile_cols + 2 * local_o);
      t.level[base] = static_cast<std::uint8_t>(quantizer.level_index(pair.g_pos));
      t.level[base + 1] = static_cast<std::uint8_t>(quantizer.level_index(pair.g_neg));
    }
  }
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      // With ABFT the initial baseline is the clean programming (no faults
      // yet, so rebaseline == encode the programmed levels).
      if (check_cols_ > 0) {
        rebaseline_tile(rt, ct);
      } else {
        repack_tile(rt, ct);
      }
    }
  }
}

std::int64_t QuantizedCrossbarEngine::valid_rows_of(std::int64_t rt) const noexcept {
  return std::min(config_.tile_rows, in_ - rt * config_.tile_rows);
}

std::uint8_t QuantizedCrossbarEngine::effective_level(const Tile& t,
                                                      std::size_t cell) const noexcept {
  const std::uint8_t f = t.fault[cell];
  if (f == 0) return t.level[cell];
  return f == static_cast<std::uint8_t>(FaultType::kStuckOff)
             ? std::uint8_t{0}
             : static_cast<std::uint8_t>(config_.levels - 1);
}

std::uint8_t QuantizedCrossbarEngine::effective_check_level(const Tile& t, std::int64_t r,
                                                            std::int64_t k) const noexcept {
  const auto cell = static_cast<std::size_t>(r * check_cols_ + k);
  const std::uint8_t f = t.check_fault[cell];
  if (f == 0) return t.check_level[cell];
  return f == static_cast<std::uint8_t>(FaultType::kStuckOff)
             ? std::uint8_t{0}
             : static_cast<std::uint8_t>(config_.levels - 1);
}

FTPIM_COLD void QuantizedCrossbarEngine::repack_tile(std::int64_t rt, std::int64_t ct) {
  Tile& t = tile(rt, ct);
  const std::int64_t rows = valid_rows_of(rt);
  const std::int64_t cols = config_.tile_cols;
  // Live data columns: the mapped outputs' column pairs, widened with ABFT
  // to 1 + the highest data column with any nonzero effective level over
  // the driven rows (a stuck-on cell past the mapped outputs still counts
  // toward the checksum identity). Every column at or past `live` holds
  // level 0 in every driven row and reads exactly zero, so the kernel skips
  // it bit-identically. Recomputed on every repack, so late faults that
  // raise a dead column are re-covered.
  std::int64_t live = 2 * std::min(outs_per_tile_, out_ - ct * outs_per_tile_);
  if (check_cols_ > 0) {
    for (std::int64_t r = 0; r < rows; ++r) {
      for (std::int64_t c = cols - 1; c >= live; --c) {
        if (effective_level(t, static_cast<std::size_t>(r * cols + c)) != 0) {
          live = c + 1;
          break;
        }
      }
    }
  }
  // Packed layout [live data | check digits | dead zero pad to kQNR]: the
  // digit columns ride in the same kernel call as the data columns, so they
  // see the identical accumulation path, and the pad keeps the kernel on
  // whole column panels. Padding with extra digit columns instead would add
  // an L^k * delta term per column to the ADC tolerance.
  const std::int64_t width = panel_width(live + check_cols_);
  t.live = live;
  t.width = width;
  std::vector<std::uint8_t> eff(static_cast<std::size_t>(rows * width), 0);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < live; ++c) {
      eff[static_cast<std::size_t>(r * width + c)] =
          effective_level(t, static_cast<std::size_t>(r * cols + c));
    }
    for (std::int64_t k = 0; k < check_cols_; ++k) {
      eff[static_cast<std::size_t>(r * width + live + k)] = effective_check_level(t, r, k);
    }
  }
  // Pack with k == rows (the driven rows): the packed panel stride is a
  // function of k (ceil(k/2) pairs per panel), and the MVM drives the kernel
  // with exactly that k.
  t.packed.resize(kernels::packed_levels_bytes(rows, width));
  kernels::pack_levels(eff.data(), rows, width, width, t.packed.data());
  if (config_.adc.ideal()) {
    t.tol2 = 0;  // digitization is exact, so the checksum identity is too
    return;
  }
  // Worst-case column sum over the driven rows, per packed column.
  t.delta.resize(static_cast<std::size_t>(width));
  for (std::int64_t c = 0; c < width; ++c) {
    std::int64_t bound = 0;
    for (std::int64_t r = 0; r < rows; ++r) {
      bound += eff[static_cast<std::size_t>(r * width + c)];
    }
    t.delta[static_cast<std::size_t>(c)] = adc_column_delta(config_.adc, 127 * bound);
  }
  // 2x tolerance of the digitized checksum comparison: round-half-away error
  // is at most delta/2 per column, so 2 * |sum_c A~_c - sum_k L^k A~*_k| <=
  // sum_c delta_c + sum_k L^k delta*_k for a fault-free tile (clipping
  // excluded — see DESIGN.md section 14). The sum runs over ALL tile_cols
  // data bitlines of the physical tile: each dead column past `live` has a
  // zero bound and contributes the converter's minimum step.
  std::int64_t tol2 = (cols - live) * adc_column_delta(config_.adc, 0);
  for (std::int64_t c = 0; c < live; ++c) tol2 += t.delta[static_cast<std::size_t>(c)];
  std::int64_t chk_tol = 0;
  for (std::int64_t k = check_cols_ - 1; k >= 0; --k) {
    chk_tol = chk_tol * config_.levels + t.delta[static_cast<std::size_t>(live + k)];
  }
  t.tol2 = tol2 + chk_tol;
  if (check_cols_ > 0) {
    // Saturation thresholds for the verification veto: |reconstructed| ==
    // qmax * delta means the column clipped, and the bound above no longer
    // holds for that sample.
    const std::int64_t qmax = config_.adc.qmax();
    t.sat.resize(static_cast<std::size_t>(live + check_cols_));
    for (std::size_t c = 0; c < t.sat.size(); ++c) t.sat[c] = qmax * t.delta[c];
  }
}

FTPIM_COLD void QuantizedCrossbarEngine::rebaseline_tile(std::int64_t rt, std::int64_t ct) {
  Tile& t = tile(rt, ct);
  const std::int64_t rows = valid_rows_of(rt);
  const std::int64_t cols = config_.tile_cols;
  for (std::int64_t r = 0; r < rows; ++r) {
    std::int64_t s = 0;
    for (std::int64_t c = 0; c < cols; ++c) {
      s += effective_level(t, static_cast<std::size_t>(r * cols + c));
    }
    for (std::int64_t k = 0; k < check_cols_; ++k) {
      t.check_level[static_cast<std::size_t>(r * check_cols_ + k)] =
          static_cast<std::uint8_t>(s % config_.levels);
      s /= config_.levels;
    }
    // check_cols_ was sized for the maximal row sum, so the digits always fit.
    FTPIM_DCHECK_EQ(s, 0);
  }
  // A stuck checksum cell makes the check column itself unreliable: silence
  // verification for this tile (canaries still cover it) rather than alarm
  // forever on a fault no scrub can reach.
  t.check_ok = std::none_of(t.check_fault.begin(), t.check_fault.end(),
                            [](std::uint8_t f) { return f != 0; })
                   ? 1
                   : 0;
  repack_tile(rt, ct);
}

bool QuantizedCrossbarEngine::abft_tile_active(std::int64_t rt, std::int64_t ct) const {
  FTPIM_CHECK(rt >= 0 && rt < row_tiles_ && ct >= 0 && ct < col_tiles_,
              "QuantizedCrossbarEngine::abft_tile_active: tile index out of range");
  return check_cols_ > 0 && tile(rt, ct).check_ok != 0;
}

void QuantizedCrossbarEngine::abft_rebaseline() {
  FTPIM_CHECK(check_cols_ > 0, "QuantizedCrossbarEngine::abft_rebaseline: ABFT is disabled");
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      rebaseline_tile(rt, ct);
    }
  }
}

void QuantizedCrossbarEngine::scrub_tile(std::int64_t rt, std::int64_t ct) {
  FTPIM_CHECK(rt >= 0 && rt < row_tiles_ && ct >= 0 && ct < col_tiles_,
              "QuantizedCrossbarEngine::scrub_tile: tile index out of range");
  Tile& t = tile(rt, ct);
  // The programmed levels (and the checksum digits of the last baseline) are
  // retained state, so "re-program from source" is exactly a tile-local
  // fault clear + repack. The caller re-applies its persistent DefectMap so
  // aging-grown faults resurface and keep the detection alive.
  std::fill(t.fault.begin(), t.fault.end(), std::uint8_t{0});
  std::fill(t.check_fault.begin(), t.check_fault.end(), std::uint8_t{0});
  t.idle_faults.clear();
  repack_tile(rt, ct);
}

std::int64_t QuantizedCrossbarEngine::scrub(const abft::TileFaultReport& report) {
  std::int64_t scrubbed = 0;
  for (const abft::TileFaultCount& f : report.tiles) {
    scrub_tile(f.row_tile, f.col_tile);
    ++scrubbed;
  }
  return scrubbed;
}

abft::TileFaultReport QuantizedCrossbarEngine::take_abft_report() {
  FTPIM_CHECK(check_cols_ > 0, "QuantizedCrossbarEngine::take_abft_report: ABFT is disabled");
  return abft_.take();
}

std::int64_t QuantizedCrossbarEngine::total_cells() const noexcept {
  return static_cast<std::int64_t>(tiles_.size()) * config_.tile_rows * config_.tile_cols;
}

std::int64_t QuantizedCrossbarEngine::stuck_cells() const noexcept {
  std::int64_t n = 0;
  for (const Tile& t : tiles_) {
    for (const std::uint8_t f : t.fault) n += (f != 0);
    n += static_cast<std::int64_t>(t.idle_faults.size());
  }
  return n;
}

void QuantizedCrossbarEngine::apply_device_defects(const StuckAtFaultModel& model,
                                                   std::uint64_t master_seed,
                                                   std::uint64_t device_index) {
  // Identical stream to CrossbarEngine::apply_device_defects: one sample per
  // tile in row-major tile order from the derived device seed. Checksum
  // cells draw from a SEPARATE derived stream (distinct salt) so enabling
  // ABFT leaves the data-cell fault pattern of a given die byte-identical.
  Rng rng(derive_seed(master_seed, device_index + 0xcba));
  Rng rng_chk(derive_seed(master_seed, device_index + 0xabf7));
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    // Physical cell r * tile_cols + c is stored at the same index when row r
    // is driven; past that it is an idle fault (data) or unread (checksum).
    const std::int64_t driven = valid_rows_of(rt);
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      Tile& t = tile(rt, ct);
      const DefectMap map =
          DefectMap::sample(config_.tile_rows * config_.tile_cols, model, rng);
      for (const CellFault& f : map.faults()) {
        if (f.cell_index < driven * config_.tile_cols) {
          t.fault[static_cast<std::size_t>(f.cell_index)] = static_cast<std::uint8_t>(f.type);
        } else {
          t.idle_faults.push_back(f.cell_index);
        }
      }
      std::sort(t.idle_faults.begin(), t.idle_faults.end());
      t.idle_faults.erase(std::unique(t.idle_faults.begin(), t.idle_faults.end()),
                          t.idle_faults.end());
      if (check_cols_ > 0) {
        const DefectMap chk_map =
            DefectMap::sample(config_.tile_rows * check_cols_, model, rng_chk);
        for (const CellFault& f : chk_map.faults()) {
          if (f.cell_index < driven * check_cols_) {
            t.check_fault[static_cast<std::size_t>(f.cell_index)] =
                static_cast<std::uint8_t>(f.type);
          }
        }
      }
      repack_tile(rt, ct);
    }
  }
}

void QuantizedCrossbarEngine::apply_defect_map(const DefectMap& map) {
  FTPIM_CHECK(map.cell_count() == 2 * out_ * in_,
              "QuantizedCrossbarEngine::apply_defect_map: cell count mismatch");
  std::vector<std::uint8_t> dirty(tiles_.size(), 0);
  for (const CellFault& f : map.faults()) {
    const std::int64_t w = f.cell_index / 2;  // flat weight index o * in + i
    const std::int64_t pol = f.cell_index % 2;
    const std::int64_t o = w / in_;
    const std::int64_t i = w % in_;
    const std::int64_t rt = i / config_.tile_rows;
    const std::int64_t ct = o / outs_per_tile_;
    const std::int64_t local_r = i % config_.tile_rows;
    const std::int64_t local_c = 2 * (o % outs_per_tile_) + pol;
    Tile& t = tile(rt, ct);
    t.fault[static_cast<std::size_t>(local_r * config_.tile_cols + local_c)] =
        static_cast<std::uint8_t>(f.type);
    dirty[static_cast<std::size_t>(rt * col_tiles_ + ct)] = 1;
  }
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      if (dirty[static_cast<std::size_t>(rt * col_tiles_ + ct)] != 0) repack_tile(rt, ct);
    }
  }
}

void QuantizedCrossbarEngine::clear_defects() {
  for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
      Tile& t = tile(rt, ct);
      std::fill(t.fault.begin(), t.fault.end(), std::uint8_t{0});
      std::fill(t.check_fault.begin(), t.check_fault.end(), std::uint8_t{0});
      t.idle_faults.clear();
      repack_tile(rt, ct);
    }
  }
}

namespace {

/// Rare-path clip scan for the ABFT veto: recomputes the digitized value of
/// every verified column of one (sample, tile) readout and reports whether
/// any reached the converter rails. Runs only when a residual is already out
/// of tolerance, so the clean readout pays nothing for clip detection.
FTPIM_COLD bool any_column_clipped(const std::int32_t* crow, const std::int32_t* delta,
                                   const std::int64_t* sat, std::int64_t ncols,
                                   std::int32_t qmax) {
  for (std::int64_t c = 0; c < ncols; ++c) {
    const std::int32_t d = adc_digitize(crow[c], delta[static_cast<std::size_t>(c)], qmax);
    if (static_cast<std::int64_t>(d < 0 ? -d : d) >= sat[static_cast<std::size_t>(c)]) {
      return true;
    }
  }
  return false;
}

}  // namespace

FTPIM_HOT void QuantizedCrossbarEngine::mvm(const float* x, float* y) const {
  mvm_batch(x, 1, y);
}

FTPIM_HOT void QuantizedCrossbarEngine::mvm_batch(const float* x, std::int64_t batch,
                                                  float* y) const {
  FTPIM_CHECK_GE(batch, 0);
  if (batch == 0) return;

  // Per-batch symmetric activation scale: sx = absmax / 127. A zero batch
  // yields zero drive everywhere — short-circuit before dividing.
  float absmax = 0.0f;
  const std::int64_t total_in = batch * in_;
  for (std::int64_t i = 0; i < total_in; ++i) {
    const float a = x[i] < 0.0f ? -x[i] : x[i];
    if (a > absmax) absmax = a;
  }
  if (absmax == 0.0f) {
    std::fill(y, y + batch * out_, 0.0f);
    return;
  }
  const float inv_scale = 127.0f / absmax;
  const float dequant = (absmax / 127.0f) * (w_max_ / static_cast<float>(config_.levels - 1));

  // Scratch for the widest packed tile: live data columns never exceed
  // tile_cols, so no tile is wider than tile_cols + check digits padded.
  const std::int64_t max_width = panel_width(config_.tile_cols + check_cols_);
  const bool do_abft = check_cols_ > 0;
  const std::int64_t levels = config_.levels;
  // Odd in_ needs one zero pad byte per row: the kernels consume K in pairs
  // (qgemm.hpp's lda >= k + (k & 1) contract). tile_rows is even, so only
  // the LAST row tile can see an odd k, and its pad lands at column in_.
  const std::int64_t stride = in_ + (in_ & 1);
  kernels::PackArena& caller_arena = kernels::PackArena::local();
  auto* xq = reinterpret_cast<std::int8_t*>(
      caller_arena.byte_buffer(0, static_cast<std::size_t>(batch * stride)));

  const kernels::QmvmKernel kern = kernels::select_qmvm_kernel(kernels::active_kernel_level());
  const bool ideal_adc = config_.adc.ideal();
  const std::int32_t qmax = ideal_adc ? 0 : config_.adc.qmax();

  // Row-parallel over the batch: each worker quantizes its own slice of xq,
  // then walks every tile. All per-output state is integer until the single
  // dequantizing multiply, so the partition never changes a bit of y.
  parallel_for_chunks(
      0, static_cast<std::size_t>(batch),
      [&](std::size_t lo_s, std::size_t hi_s) {
        const auto lo = static_cast<std::int64_t>(lo_s);
        const auto hi = static_cast<std::int64_t>(hi_s);
        const std::int64_t mb = hi - lo;
        for (std::int64_t bi = lo; bi < hi; ++bi) {
          const float* xrow = x + bi * in_;
          std::int8_t* qrow = xq + bi * stride;
          for (std::int64_t i = 0; i < in_; ++i) {
            const long code = std::lround(xrow[i] * inv_scale);
            qrow[i] = static_cast<std::int8_t>(std::clamp<long>(code, -127, 127));
          }
          if ((in_ & 1) != 0) qrow[in_] = 0;
        }

        kernels::PackArena& arena = kernels::PackArena::local();
        std::int32_t* cur = arena.i32_buffer(0, static_cast<std::size_t>(mb * max_width));
        std::int64_t* acc = arena.i64_buffer(0, static_cast<std::size_t>(mb * out_));
        std::fill(acc, acc + mb * out_, std::int64_t{0});
        std::int64_t* mm = nullptr;  // per-worker per-tile mismatch counts
        std::int64_t chunk_checks = 0;
        if (do_abft) {
          mm = arena.i64_buffer(1, tiles_.size());
          std::fill(mm, mm + tiles_.size(), std::int64_t{0});
        }

        for (std::int64_t rt = 0; rt < row_tiles_; ++rt) {
          const std::int64_t base = rt * config_.tile_rows;
          const std::int64_t valid = std::min(config_.tile_rows, in_ - base);
          for (std::int64_t ct = 0; ct < col_tiles_; ++ct) {
            const Tile& t = tile(rt, ct);
            const std::int64_t width = t.width;
            kern(mb, width, valid, xq + lo * stride + base, stride, t.packed.data(), cur, width);
            const std::int64_t out_base = ct * outs_per_tile_;
            const std::int64_t out_count = std::min(outs_per_tile_, out_ - out_base);
            // A verified tile folds the checksum comparison into the readout
            // loop: the per-output accumulation below is kept expression-for-
            // expression identical to the unverified branch, so enabling ABFT
            // never changes a bit of y.
            const bool check_tile = do_abft && t.check_ok != 0;
            for (std::int64_t bi = 0; bi < mb; ++bi) {
              const std::int32_t* crow = cur + bi * width;
              std::int64_t* arow = acc + bi * out_ + out_base;
              std::int64_t dsum = 0;  // sum of digitized data columns
              if (ideal_adc) {
                if (check_tile) {
                  for (std::int64_t o = 0; o < out_count; ++o) {
                    arow[o] += crow[2 * o] - crow[2 * o + 1];
                    dsum += static_cast<std::int64_t>(crow[2 * o]) + crow[2 * o + 1];
                  }
                } else {
                  for (std::int64_t o = 0; o < out_count; ++o) {
                    arow[o] += crow[2 * o] - crow[2 * o + 1];
                  }
                }
              } else {
                if (check_tile) {
                  for (std::int64_t o = 0; o < out_count; ++o) {
                    const std::int32_t dp = adc_digitize(
                        crow[2 * o], t.delta[static_cast<std::size_t>(2 * o)], qmax);
                    const std::int32_t dn = adc_digitize(
                        crow[2 * o + 1], t.delta[static_cast<std::size_t>(2 * o + 1)], qmax);
                    arow[o] += dp - dn;
                    dsum += static_cast<std::int64_t>(dp) + dn;
                  }
                } else {
                  for (std::int64_t o = 0; o < out_count; ++o) {
                    arow[o] += adc_digitize(crow[2 * o], t.delta[static_cast<std::size_t>(2 * o)],
                                            qmax) -
                               adc_digitize(crow[2 * o + 1],
                                            t.delta[static_cast<std::size_t>(2 * o + 1)], qmax);
                  }
                }
              }
              if (check_tile) {
                // Live data columns past the mapped outputs (a stuck cell in
                // an unmapped column) still count toward the checksum
                // identity; columns past `live` read exactly zero.
                const std::int64_t live = t.live;
                for (std::int64_t c = 2 * out_count; c < live; ++c) {
                  dsum += ideal_adc
                              ? crow[c]
                              : adc_digitize(crow[c], t.delta[static_cast<std::size_t>(c)], qmax);
                }
                std::int64_t chk = 0;  // sum_k L^k * digit column k, via Horner
                for (std::int64_t k = check_cols_ - 1; k >= 0; --k) {
                  std::int32_t a = crow[live + k];
                  if (!ideal_adc) {
                    a = adc_digitize(a, t.delta[static_cast<std::size_t>(live + k)], qmax);
                  }
                  chk = chk * levels + a;
                }
                ++chunk_checks;
                const std::int64_t res = dsum - chk;
                if ((res < 0 ? -2 * res : 2 * res) > t.tol2) {
                  // Out-of-tolerance residual. On the ADC path a saturated
                  // column breaks the linearity the identity needs, so the
                  // clip veto is decided HERE, on the rare mismatch path,
                  // instead of per column in the clean readout above. A
                  // clipped sample whose distorted residual still lands
                  // inside tolerance counts as a check but cannot alarm.
                  if (ideal_adc ||
                      !any_column_clipped(crow, t.delta.data(), t.sat.data(),
                                          live + check_cols_, qmax)) {
                    ++mm[static_cast<std::size_t>(rt * col_tiles_ + ct)];
                  } else {
                    --chunk_checks;  // vetoed, not verified
                  }
                }
              }
            }
          }
        }
        if (do_abft) abft_.merge(mm, chunk_checks);

        for (std::int64_t bi = 0; bi < mb; ++bi) {
          float* yrow = y + (lo + bi) * out_;
          const std::int64_t* arow = acc + bi * out_;
          for (std::int64_t o = 0; o < out_; ++o) {
            yrow[o] = static_cast<float>(arow[o]) * dequant;
          }
        }
      },
      2);
}

Tensor QuantizedCrossbarEngine::read_back() const {
  Tensor w(Shape{out_, in_});
  const ConductanceQuantizer quantizer(kDeviceRange, config_.levels);
  const float g_to_w = w_max_ / kDeviceRange.span();
  for (std::int64_t o = 0; o < out_; ++o) {
    const std::int64_t ct = o / outs_per_tile_;
    const std::int64_t local_o = o % outs_per_tile_;
    for (std::int64_t i = 0; i < in_; ++i) {
      const std::int64_t rt = i / config_.tile_rows;
      const std::int64_t local_r = i % config_.tile_rows;
      const Tile& t = tile(rt, ct);
      const std::size_t base = static_cast<std::size_t>(local_r * config_.tile_cols + 2 * local_o);
      const float g_pos = quantizer.level_value(effective_level(t, base));
      const float g_neg = quantizer.level_value(effective_level(t, base + 1));
      w.at(o, i) = (g_pos - g_neg) * g_to_w;
    }
  }
  return w;
}

}  // namespace ftpim::qinfer
