// Weight-space stuck-at-fault injection — the paper's Apply_Fault(w, P_sa).
//
// For every weight, its differential cell pair is materialized, each cell is
// independently subjected to the SAF model, and the (possibly faulted) pair
// is read back into weight space. This is exactly what the cell-level
// CrossbarEngine computes, collapsed to a fast per-weight path (the
// equivalence is covered by
// CrossbarEngine.EquivalenceWithWeightSpaceInjectorInDistribution).
//
// This file owns every weight-space fault path, and all of them share one
// cell-pair readout: RNG-drawn faults (apply_faults_to_copy, the in-place
// apply_stuck_at_faults and the reusable FaultInjectionSession), a
// device's DefectMap (apply_defect_map_to_model) and R-modular redundancy
// (apply_faults_with_redundancy). The parallel defect evaluator runs one
// session per worker-thread model clone.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/fault_model.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

struct InjectorConfig {
  int quant_levels = 0;  ///< 0 = analog cells (paper setting)
};

struct InjectionStats {
  std::int64_t cells = 0;             ///< 2 * weights
  std::int64_t faulted_cells = 0;
  std::int64_t affected_weights = 0;  ///< weights whose value changed
  [[nodiscard]] double cell_fault_rate() const noexcept {
    return cells > 0 ? static_cast<double>(faulted_cells) / static_cast<double>(cells) : 0.0;
  }
};

/// Non-mutating Apply_Fault: writes the faulted read-back of `src` into `dst`
/// (reusing `dst`'s storage when the shape already matches) without touching
/// `src`. The differential-pair w_max scale is derived from `src`, so the
/// result is bit-identical to faulting `src` in place. If `hit_mask` is
/// non-null it is shaped like `src` (storage reused too) and set to 1 at
/// weights whose cells faulted.
InjectionStats apply_faults_to_copy(const Tensor& src, Tensor& dst,
                                    const StuckAtFaultModel& model, const InjectorConfig& config,
                                    Rng& rng, Tensor* hit_mask = nullptr);

/// Applies stuck-at faults to `weights` in place (same RNG stream and float
/// semantics as apply_faults_to_copy).
InjectionStats apply_stuck_at_faults(Tensor& weights, const StuckAtFaultModel& model,
                                     const InjectorConfig& config, Rng& rng,
                                     Tensor* hit_mask = nullptr);

/// Cells `model_root` occupies on its differential-pair deployment: 2 cells
/// per crossbar weight, concatenated in crossbar_params order. This is the
/// cell_count a DefectMap for the model must carry.
[[nodiscard]] std::int64_t crossbar_cell_count(Module& model_root);

/// Clean->faulted form of apply_defect_map_to_model, as apply_faults_to_copy
/// is for drawn faults: reads the CLEAN crossbar weights of `clean_root` and
/// writes their faulted read-back into the matching crossbar weights of
/// `dst_root` (same architecture), reusing dst's storage. Weight i of the
/// concatenated crossbar_params walk owns cells 2i (positive) and 2i+1
/// (negative); stuck cells pin to Gmin/Gmax and the weight reads back
/// through the same cell-pair readout as the RNG-driven paths. Map
/// application is defined against the clean programming of each pair —
/// stuck-cell readback is lossy, so a grown map is never layered onto
/// already-faulted weights. Only crossbar weights of `dst_root` are
/// written; `clean_root` is only read (through the read-only walk), so many
/// threads may share it. The map's cell_count must equal
/// crossbar_cell_count of either model.
InjectionStats apply_defect_map_to_copy(const Module& clean_root, Module& dst_root,
                                        const DefectMap& map, const InjectorConfig& config);

/// In-place form: `model_root` holds clean weights and is both the source
/// and the destination of apply_defect_map_to_copy.
InjectionStats apply_defect_map_to_model(Module& model_root, const DefectMap& map,
                                         const InjectorConfig& config);

/// R-modular redundancy at the weight level — the error-correction family
/// the paper cites as complementary to stochastic FT training ([28] T. Liu
/// et al., DAC'19). Each weight is stored on R independent analog cell pairs
/// and read back as the median (R odd), which masks any single stuck cell at
/// R = 3 (TMR) at 3x cell cost.
struct RedundancyConfig {
  int replicas = 3;  ///< R (odd, >= 1); 1 = no redundancy
};

/// Applies stuck-at faults to `weights` deployed with R-modular redundancy:
/// every weight is programmed on R cell pairs, faults hit each cell
/// independently at the model's rate, and the weight reads back as the
/// median of the R pair readouts. Stats count 2 * R cells per weight and a
/// weight as affected when its median changed. R = 1 draws the same stream
/// and reads back the same weights as apply_stuck_at_faults on analog cells.
InjectionStats apply_faults_with_redundancy(Tensor& weights, const StuckAtFaultModel& model,
                                            const RedundancyConfig& config, Rng& rng);

/// Reusable inject/restore workspace bound to one network.
///
/// Thread-safety contract: a session (like the Module it binds) is
/// single-owner — one session per worker clone, never shared across threads
/// (see evaluate_under_defects). inject() enforces non-concurrent use with an
/// always-on contract check on an internal atomic flag.
///
/// Binds to the crossbar-weight parameters of `model_root` once; every
/// inject() computes faulted copies into persistent shadow buffers and then
/// swaps them in (exception-safe: the model is untouched until all copies
/// succeeded; the publish step is noexcept swaps). restore() swaps the clean
/// tensors back in O(pointers) and is idempotent. Buffers — shadows and hit
/// masks — are allocated on the first inject() and reused afterwards, which
/// is what keeps per-iteration fault injection in FaultTolerantTrainer
/// allocation-free in steady state.
class FaultInjectionSession {
 public:
  explicit FaultInjectionSession(Module& model_root);
  ~FaultInjectionSession();  ///< restores clean weights if still injected

  FaultInjectionSession(const FaultInjectionSession&) = delete;
  FaultInjectionSession& operator=(const FaultInjectionSession&) = delete;

  /// Snapshots clean weights and publishes a freshly drawn fault map.
  /// Restores first if a previous injection is still active.
  const InjectionStats& inject(const StuckAtFaultModel& model, const InjectorConfig& config,
                               Rng& rng);

  /// Swaps the clean weights back (idempotent, noexcept).
  void restore() noexcept;

  [[nodiscard]] bool injected() const noexcept { return injected_; }
  [[nodiscard]] const InjectionStats& stats() const noexcept { return stats_; }

  /// Per-parameter hit masks, parallel to faulted_params(); 1 where a cell
  /// fault changed the weight. Valid after the first inject().
  [[nodiscard]] const std::vector<Tensor>& hit_masks() const noexcept { return hit_masks_; }
  [[nodiscard]] const std::vector<Param*>& faulted_params() const noexcept { return params_; }

 private:
  std::vector<Param*> params_;
  std::vector<Tensor> shadow_;  ///< faulted copy pre-publish, clean copy while injected
  std::vector<Tensor> hit_masks_;
  InjectionStats stats_;
  bool injected_ = false;
  std::atomic<bool> busy_{false};  ///< inject() reentrancy/concurrency detector
};

}  // namespace ftpim
