// Tiled crossbar mapping of a weight matrix, with cell-level fault injection.
//
// A weight matrix W [out, in] maps onto tiles of physical crossbars:
//   * rows carry the input dimension (split into ceil(in / tile_rows) tiles),
//   * each output column uses a differential pair of crossbar columns, so a
//     tile holds tile_cols/2 outputs.
// mvm() sums partial currents across row tiles and subtracts the negative
// columns — the standard ISAAC/PUMA-style dataflow with ideal peripherals.
//
// This is the analog ground-truth oracle: the fast weight-space injector
// (fault_injector.hpp) must agree with it in distribution
// (CrossbarEngine.EquivalenceWithWeightSpaceInjectorInDistribution), and the
// int8 QuantizedCrossbarEngine must agree with it on the same defect stream
// (qinfer_test).
#pragma once

#include <cstdint>
#include <vector>

#include "src/reram/crossbar.hpp"
#include "src/reram/defect_map.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

struct CrossbarEngineConfig {
  std::int64_t tile_rows = 128;
  std::int64_t tile_cols = 128;  ///< must be even (differential pairs)
  int quant_levels = 0;
};

class CrossbarEngine {
 public:
  /// Programs W [out, in] onto tiles. w_max <= 0 means per-matrix abs-max.
  CrossbarEngine(const Tensor& weights, const CrossbarEngineConfig& config, float w_max = 0.0f);

  [[nodiscard]] std::int64_t out_features() const noexcept { return out_; }
  [[nodiscard]] std::int64_t in_features() const noexcept { return in_; }
  [[nodiscard]] std::int64_t tile_count() const noexcept {
    return static_cast<std::int64_t>(tiles_.size());
  }
  [[nodiscard]] std::int64_t total_cells() const noexcept;
  [[nodiscard]] std::int64_t stuck_cells() const noexcept;

  /// Draws an independent defect map per tile from the device seed and
  /// applies it (models one physical device instance).
  void apply_device_defects(const StuckAtFaultModel& model, std::uint64_t master_seed,
                            std::uint64_t device_index);

  /// Restores a defect-free die (weights stay programmed).
  void clear_defects();

  /// y[out] = W_effective * x[in] computed through the crossbar tiles.
  void mvm(const float* x, float* y) const;

  /// Batched form: y[batch, out] = x[batch, in] * W_effective^T, computed
  /// per tile through the packed GEMM backend (one GEMM per tile instead of
  /// batch scalar matvecs). mvm() is the batch-of-one special case.
  void mvm_batch(const float* x, std::int64_t batch, float* y) const;

  /// Reads the effective weight matrix (including fault distortions).
  [[nodiscard]] Tensor read_back() const;

 private:
  std::int64_t out_, in_;
  CrossbarEngineConfig config_;
  float w_max_;
  std::int64_t row_tiles_, col_tiles_;
  std::int64_t outs_per_tile_;
  std::vector<CrossbarArray> tiles_;  ///< row-major [row_tile][col_tile]

  [[nodiscard]] const CrossbarArray& tile(std::int64_t rt, std::int64_t ct) const {
    return tiles_[static_cast<std::size_t>(rt * col_tiles_ + ct)];
  }
  [[nodiscard]] CrossbarArray& tile(std::int64_t rt, std::int64_t ct) {
    return tiles_[static_cast<std::size_t>(rt * col_tiles_ + ct)];
  }
};

}  // namespace ftpim
