// Quantized crossbar inference engine: int8 conductance-domain compute with
// faults applied where the hardware sees them.
//
// CrossbarEngine (src/reram/crossbar_engine.hpp) simulates the analog limit:
// float conductances, float GEMM, ideal peripherals. This engine simulates
// the digital reality of a multi-level-cell deployment:
//
//   * each weight is SNAPPED to one of L conductance levels and stored as a
//     uint8 level index per differential cell (G+ = g_min + lv+ * step,
//     step = span / (L - 1)), so the stored matrix is exactly what a
//     programming loop could write into an L-level device;
//   * stuck-at faults act in the LEVEL domain — stuck-off pins a cell at
//     level 0 (g_min), stuck-on at level L-1 (g_max) — and stuck cells
//     ignore the programmed value, mirroring CrossbarArray::program;
//   * the MVM is integer end to end: activations are quantized per batch to
//     int8 codes (symmetric scale sx = absmax / 127), each tile computes
//     int8 x u8 -> int32 column sums through the qgemm kernel backend
//     (src/tensor/kernels/qgemm.hpp), the ADC model digitizes each column
//     BEFORE the G+ - G- subtraction (adc.hpp), and per-output partial sums
//     accumulate across row tiles in int64;
//   * one float multiply per output dequantizes at the very end:
//       y = total * (sx * w_max / (L - 1))
//     because w_eff = (lv+ - lv-) * step * w_max / span
//                   = (lv+ - lv-) * w_max / (L - 1).
//
// Determinism contract: everything between activation quantization and the
// final dequantize is integer arithmetic, which is exact and associative.
// mvm_batch is therefore bit-identical across FTPIM_THREADS values AND
// across kernel levels (scalar vs AVX2) — strictly stronger than the float
// path's tolerance-based reproducibility.
//
// Tiling matches CrossbarEngine: weight (o, i) lives in tile
// (rt = i / tile_rows, ct = o / (tile_cols / 2)) at local row i % tile_rows,
// physical columns 2*local_o and 2*local_o + 1. apply_device_defects draws
// the SAME per-tile defect stream as CrossbarEngine::apply_device_defects,
// so a given (master_seed, device_index) names the same physical die in
// both simulations.
//
// Storage follows what is mapped, not the tile geometry: a tile stores only
// its driven rows (the last row tile of a layer whose in_ is not a multiple
// of tile_rows drives fewer), and packs only its live data columns plus the
// checksum digits. Physical stuck cells on undriven rows are kept as a
// sorted index list, so stuck_cells() and total_cells() still describe the
// whole physical die.
//
// Mutation (apply_* / clear_defects) is single-owner: do not mutate
// concurrently with mvm calls. mvm itself is internally parallel and safe to
// call from one thread at a time per engine.
#pragma once

#include <cstdint>
#include <vector>

#include "src/reram/abft.hpp"
#include "src/reram/conductance.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/qinfer/adc.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim::qinfer {

struct QuantizedEngineConfig {
  /// Wordlines per tile; must be even (the int8 kernel consumes K in pairs,
  /// and an even split keeps the zero-pad contract at the last tile only).
  std::int64_t tile_rows = 128;
  /// Bitlines per tile; must be even (differential pairs).
  std::int64_t tile_cols = 128;
  /// Conductance levels per cell, in [2, 256] (uint8 level storage).
  int levels = 16;
  AdcConfig adc{};
  /// ABFT checksum columns + per-MVM verification (DESIGN.md section 14).
  abft::AbftConfig abft{};

  void validate() const;
};

class QuantizedCrossbarEngine {
 public:
  /// Programs W [out, in] onto level-index tiles. w_max <= 0 means
  /// per-matrix abs-max (same convention as CrossbarEngine).
  QuantizedCrossbarEngine(const Tensor& weights, const QuantizedEngineConfig& config,
                          float w_max = 0.0f);

  [[nodiscard]] std::int64_t out_features() const noexcept { return out_; }
  [[nodiscard]] std::int64_t in_features() const noexcept { return in_; }
  [[nodiscard]] std::int64_t tile_count() const noexcept {
    return static_cast<std::int64_t>(tiles_.size());
  }
  [[nodiscard]] const QuantizedEngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] float w_max() const noexcept { return w_max_; }
  [[nodiscard]] std::int64_t total_cells() const noexcept;
  [[nodiscard]] std::int64_t stuck_cells() const noexcept;

  /// Draws an independent defect map per tile from the device seed and
  /// applies it in the level domain. Uses the same RNG stream as
  /// CrossbarEngine::apply_device_defects — (master_seed, device_index)
  /// identifies the same die in both engines.
  void apply_device_defects(const StuckAtFaultModel& model, std::uint64_t master_seed,
                            std::uint64_t device_index);

  /// Applies a weight-indexed defect map (cell_count == 2 * out * in; cell
  /// 2*w is the positive cell of flat weight w = o * in + i, cell 2*w + 1
  /// the negative cell) — the convention of
  /// src/reram/fault_injector.hpp, so ReplicaPool / evaluator maps drive
  /// this engine directly. Maps LAYER: cells named here overwrite their
  /// fault state, cells absent keep theirs (what in-service aging needs);
  /// clear_defects() is the only reset.
  void apply_defect_map(const DefectMap& map);

  /// Restores a defect-free die (programmed levels stay).
  void clear_defects();

  /// y[out] = W_effective * x[in] through the quantized datapath.
  void mvm(const float* x, float* y) const;

  /// Batched form: y[batch, out] = x[batch, in] * W_effective^T. One int8
  /// GEMM per tile; the activation scale is shared by the whole batch.
  void mvm_batch(const float* x, std::int64_t batch, float* y) const;

  /// Effective float weights reconstructed from the (faulted) level indices
  /// through the same readout equation as CrossbarEngine::read_back.
  [[nodiscard]] Tensor read_back() const;

  // --- ABFT (config().abft.enabled only; see src/reram/abft.hpp) ---

  [[nodiscard]] bool abft_enabled() const noexcept { return check_cols_ > 0; }
  /// Base-L digit columns appended per tile (0 when ABFT is off).
  [[nodiscard]] std::int64_t checksum_columns() const noexcept { return check_cols_; }
  [[nodiscard]] std::int64_t row_tile_count() const noexcept { return row_tiles_; }
  [[nodiscard]] std::int64_t col_tile_count() const noexcept { return col_tiles_; }
  /// False when the tile's verification was silenced at the last rebaseline
  /// because a checksum cell itself is stuck (the check column cannot be
  /// trusted; the canary path still covers the tile).
  [[nodiscard]] bool abft_tile_active(std::int64_t rt, std::int64_t ct) const;

  /// Recomputes every tile's checksum digits from the current EFFECTIVE
  /// levels: faults present now are accepted as the reference state (no
  /// further detections), faults that appear later are detected. Called once
  /// at install so a fault-tolerated die does not trigger repair thrash.
  void abft_rebaseline();

  /// Re-programs one tile from retained source levels: clears the tile's
  /// data- and checksum-cell faults and repacks. Unlike clear_defects this is
  /// tile-local; the caller re-applies its persistent DefectMap afterwards so
  /// aging-grown faults stay visible while transient faults heal.
  void scrub_tile(std::int64_t rt, std::int64_t ct);

  /// Scrubs every tile flagged in the report; returns the number scrubbed.
  std::int64_t scrub(const abft::TileFaultReport& report);

  /// Drains mismatch tallies accumulated by mvm / mvm_batch since the last
  /// drain (report.layer is left at -1; the deployment fills it in).
  [[nodiscard]] abft::TileFaultReport take_abft_report();

 private:
  /// One crossbar tile, stored for its DRIVEN rows only (rows =
  /// valid_rows_of(rt)); rows past in_ never see wordline drive, so their
  /// levels cannot reach a readout and are not kept.
  struct Tile {
    std::vector<std::uint8_t> level;  ///< programmed level index per cell [rows * tile_cols]
    std::vector<std::uint8_t> fault;  ///< FaultType per cell (0 = healthy), same layout
    /// Stuck data cells on undriven rows: physical index r * tile_cols + c,
    /// sorted and unique. No readout sees them; stuck_cells() counts them so
    /// it keeps its physical meaning. Checksum faults there are dropped.
    std::vector<std::int64_t> idle_faults;
    /// Data columns computed by the kernel: max(2 * mapped outputs, 1 + the
    /// highest data column with a nonzero effective level when ABFT is on).
    /// Every data column at or past it reads exactly zero.
    std::int64_t live = 0;
    /// Packed columns [live data | check digits | zero pad to kQNR]; the
    /// kernel runs at this width and digit k reads column live + k.
    std::int64_t width = 0;
    std::vector<std::uint8_t> packed;  ///< k-pair panels [rows x width] of the EFFECTIVE levels
    std::vector<std::int32_t> delta;   ///< per packed column ADC step (bits > 0 only)
    // ABFT state (sized only when enabled):
    std::vector<std::uint8_t> check_level;  ///< baseline digits [rows * check_cols]
    std::vector<std::uint8_t> check_fault;  ///< FaultType per checksum cell
    std::uint8_t check_ok = 1;              ///< verification trusted for this tile
    /// 2x residual tolerance (0 on the ideal-ADC path). Covers all tile_cols
    /// data bitlines: each dead column past `live` adds the minimum step.
    std::int64_t tol2 = 0;
    /// Clip magnitude qmax * delta per column in [0, live + check_cols) (ADC
    /// path only): a sample whose readout saturated any of them is vetoed,
    /// not verified — clipping destroys the linearity the checksum needs.
    std::vector<std::int64_t> sat;
  };

  [[nodiscard]] std::uint8_t effective_level(const Tile& t, std::size_t cell) const noexcept;
  [[nodiscard]] std::uint8_t effective_check_level(const Tile& t, std::int64_t r,
                                                   std::int64_t k) const noexcept;
  /// Recomputes the live width and rebuilds the packed panels and ADC deltas
  /// after any level/fault change.
  void repack_tile(std::int64_t rt, std::int64_t ct);
  /// Re-encodes the checksum digits from current effective levels, refreshes
  /// check_ok, and repacks (ABFT only).
  void rebaseline_tile(std::int64_t rt, std::int64_t ct);
  [[nodiscard]] const Tile& tile(std::int64_t rt, std::int64_t ct) const {
    return tiles_[static_cast<std::size_t>(rt * col_tiles_ + ct)];
  }
  [[nodiscard]] Tile& tile(std::int64_t rt, std::int64_t ct) {
    return tiles_[static_cast<std::size_t>(rt * col_tiles_ + ct)];
  }
  [[nodiscard]] std::int64_t valid_rows_of(std::int64_t rt) const noexcept;

  std::int64_t out_ = 0, in_ = 0;
  QuantizedEngineConfig config_;
  float w_max_ = 1.0f;
  std::int64_t row_tiles_ = 0, col_tiles_ = 0;
  std::int64_t outs_per_tile_ = 0;
  std::int64_t check_cols_ = 0;  ///< checksum digit columns (0 = ABFT off)
  std::vector<Tile> tiles_;      ///< row-major [row_tile][col_tile]; each sizes its own packing
  /// MVM workers merge mismatch counts here (cold, once per chunk).
  mutable abft::AbftAccumulator abft_;
};

}  // namespace ftpim::qinfer
