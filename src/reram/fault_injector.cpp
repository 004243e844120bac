#include "src/reram/fault_injector.hpp"

#include <algorithm>

#include "src/common/check.hpp"
#include "src/reram/conductance.hpp"
#include "src/reram/quantizer.hpp"

namespace ftpim {
namespace {

/// The paper's cell-pair readout, shared by every weight-space fault path.
/// The clean weight `w` is programmed on its differential (G+, G-) pair and
/// snapped to the device's conductance levels when `quant` has them; a
/// stuck-off cell then pins to Gmin and a stuck-on cell to Gmax, and the
/// pair reads back through the differential equation. An analog pair with
/// no stuck cell skips the conductance round trip, so it reads back `w`
/// bit-exactly.
inline float read_back(float w, FaultType f_pos, FaultType f_neg,
                       const DifferentialMapper& mapper, const ConductanceQuantizer& quant) {
  const bool quantize = quant.levels() >= 2;
  if (!quantize && f_pos == FaultType::kNone && f_neg == FaultType::kNone) return w;
  CellPair cells = mapper.to_cells(w);
  if (quantize) {
    cells.g_pos = quant.quantize(cells.g_pos);
    cells.g_neg = quant.quantize(cells.g_neg);
  }
  const auto pinned = [](FaultType f) {
    return f == FaultType::kStuckOff ? kDeviceRange.g_min : kDeviceRange.g_max;
  };
  if (f_pos != FaultType::kNone) cells.g_pos = pinned(f_pos);
  if (f_neg != FaultType::kNone) cells.g_neg = pinned(f_neg);
  return mapper.to_weight(cells);
}

/// Stuck cells among one pair.
inline int stuck_cells(FaultType f_pos, FaultType f_neg) {
  return (f_pos != FaultType::kNone ? 1 : 0) + (f_neg != FaultType::kNone ? 1 : 0);
}

/// RNG-driven kernel: reads clean weights from `src`, writes the faulted
/// read-back to `dst` (src == dst is the in-place path). Every element of
/// dst is written, so a copy destination needs no pre-fill. A weight counts
/// as affected (and is marked in `mask`) when a stuck cell changed it;
/// quantization alone does not count.
InjectionStats fault_kernel(const float* src, float* dst, std::int64_t n,
                            const DifferentialMapper& mapper, const ConductanceQuantizer& quant,
                            const StuckAtFaultModel& model, Rng& rng, float* mask) {
  InjectionStats stats;
  stats.cells = 2 * n;
  for (std::int64_t i = 0; i < n; ++i) {
    const FaultType f_pos = model.sample(rng);
    const FaultType f_neg = model.sample(rng);
    const float w = read_back(src[i], f_pos, f_neg, mapper, quant);
    const int stuck = stuck_cells(f_pos, f_neg);
    if (stuck > 0) {
      stats.faulted_cells += stuck;
      if (w != src[i]) {
        ++stats.affected_weights;
        if (mask != nullptr) mask[i] = 1.0f;
      }
    }
    dst[i] = w;
  }
  return stats;
}

/// Shapes `buffer` like `reference`, reusing its storage when possible, and
/// zero-fills it (hit masks must start clean).
void reset_like(Tensor& buffer, const Tensor& reference) {
  if (buffer.shape() != reference.shape()) {
    buffer = Tensor(reference.shape());
  } else {
    buffer.zero();
  }
}

void accumulate(InjectionStats& total, const InjectionStats& s) {
  total.cells += s.cells;
  total.faulted_cells += s.faulted_cells;
  total.affected_weights += s.affected_weights;
}

}  // namespace

InjectionStats apply_faults_to_copy(const Tensor& src, Tensor& dst,
                                    const StuckAtFaultModel& model, const InjectorConfig& config,
                                    Rng& rng, Tensor* hit_mask) {
  FTPIM_CHECK(&dst != &src, "apply_faults_to_copy: dst must not alias src (use apply_stuck_at_faults)");
  FTPIM_CHECK(hit_mask == nullptr || (hit_mask != &dst && hit_mask != &src),
              "apply_faults_to_copy: hit_mask must not alias src/dst");
  const ConductanceQuantizer quant(kDeviceRange, config.quant_levels);
  if (dst.shape() != src.shape()) dst = Tensor(src.shape());
  if (hit_mask != nullptr) reset_like(*hit_mask, src);
  const DifferentialMapper mapper(kDeviceRange, full_scale_of(src));
  return fault_kernel(src.data(), dst.data(), src.numel(), mapper, quant, model, rng,
                      hit_mask != nullptr ? hit_mask->data() : nullptr);
}

InjectionStats apply_stuck_at_faults(Tensor& weights, const StuckAtFaultModel& model,
                                     const InjectorConfig& config, Rng& rng, Tensor* hit_mask) {
  const ConductanceQuantizer quant(kDeviceRange, config.quant_levels);
  if (hit_mask != nullptr) reset_like(*hit_mask, weights);
  const DifferentialMapper mapper(kDeviceRange, full_scale_of(weights));
  return fault_kernel(weights.data(), weights.data(), weights.numel(), mapper, quant, model, rng,
                      hit_mask != nullptr ? hit_mask->data() : nullptr);
}

std::int64_t crossbar_cell_count(Module& model_root) {
  std::int64_t cells = 0;
  for (const Param* p : crossbar_params(model_root)) cells += 2 * p->value.numel();
  return cells;
}

InjectionStats apply_defect_map_to_copy(const Module& clean_root, Module& dst_root,
                                        const DefectMap& map, const InjectorConfig& config) {
  const ConductanceQuantizer quant(kDeviceRange, config.quant_levels);
  const std::vector<const Param*> clean = crossbar_params(clean_root);
  const std::vector<Param*> params = crossbar_params(dst_root);
  FTPIM_CHECK_EQ(clean.size(), params.size(),
                 "apply_defect_map: clean model has %zu crossbar weights, destination %zu",
                 clean.size(), params.size());
  std::int64_t total_cells = 0;
  for (std::size_t j = 0; j < params.size(); ++j) {
    FTPIM_CHECK(clean[j]->value.shape() == params[j]->value.shape(),
                "apply_defect_map: crossbar weight %zu differs in shape", j);
    total_cells += 2 * params[j]->value.numel();
  }
  FTPIM_CHECK_EQ(map.cell_count(), total_cells,
                 "apply_defect_map: map describes %lld cells, model has %lld",
                 static_cast<long long>(map.cell_count()), static_cast<long long>(total_cells));

  InjectionStats stats;
  stats.cells = total_cells;
  const std::vector<CellFault>& faults = map.faults();
  // Quantized cells change every weight, so every weight is visited; analog
  // cells change only faulted ones, so the walk jumps from fault to fault.
  const bool visit_all = quant.levels() >= 2;
  std::size_t k = 0;
  std::int64_t cell_off = 0;
  for (std::size_t j = 0; j < params.size(); ++j) {
    const float* src = clean[j]->value.data();
    float* w = params[j]->value.data();
    const std::int64_t n = params[j]->value.numel();
    const std::int64_t cell_hi = cell_off + 2 * n;
    const DifferentialMapper mapper(kDeviceRange, full_scale_of(clean[j]->value));
    // The walk below writes only faulted weights (analog cells), so a copy
    // destination first takes every clean value.
    if (w != src) std::copy_n(src, n, w);
    // Weight owning the next unconsumed fault of this parameter, or n.
    const auto next_faulted = [&] {
      return k < faults.size() && faults[k].cell_index < cell_hi
                 ? (faults[k].cell_index - cell_off) / 2
                 : n;
    };
    for (std::int64_t i = visit_all ? 0 : next_faulted(); i < n;
         i = visit_all ? i + 1 : next_faulted()) {
      // Consume every fault landing on weight i (its positive and/or
      // negative cell) before reading the pair back.
      FaultType f[2] = {FaultType::kNone, FaultType::kNone};
      while (k < faults.size() && faults[k].cell_index < cell_hi &&
             (faults[k].cell_index - cell_off) / 2 == i) {
        f[(faults[k].cell_index - cell_off) % 2] = faults[k].type;
        ++k;
      }
      const float new_w = read_back(src[i], f[0], f[1], mapper, quant);
      const int stuck = stuck_cells(f[0], f[1]);
      if (stuck > 0) {
        stats.faulted_cells += stuck;
        if (new_w != src[i]) ++stats.affected_weights;
      }
      w[i] = new_w;
    }
    cell_off = cell_hi;
  }
  return stats;
}

InjectionStats apply_defect_map_to_model(Module& model_root, const DefectMap& map,
                                         const InjectorConfig& config) {
  return apply_defect_map_to_copy(model_root, model_root, map, config);
}

InjectionStats apply_faults_with_redundancy(Tensor& weights, const StuckAtFaultModel& model,
                                            const RedundancyConfig& config, Rng& rng) {
  FTPIM_CHECK(config.replicas >= 1 && config.replicas % 2 == 1,
              "redundancy: replicas must be odd and >= 1");
  InjectionStats stats;
  stats.cells = 2ll * config.replicas * weights.numel();
  const DifferentialMapper mapper(kDeviceRange, full_scale_of(weights));
  const ConductanceQuantizer analog(kDeviceRange, 0);
  std::vector<float> readouts(static_cast<std::size_t>(config.replicas));
  float* w = weights.data();
  for (std::int64_t i = 0; i < weights.numel(); ++i) {
    for (float& readout : readouts) {
      const FaultType f_pos = model.sample(rng);
      const FaultType f_neg = model.sample(rng);
      stats.faulted_cells += stuck_cells(f_pos, f_neg);
      readout = read_back(w[i], f_pos, f_neg, mapper, analog);
    }
    const auto mid = readouts.begin() + config.replicas / 2;
    std::nth_element(readouts.begin(), mid, readouts.end());
    if (*mid != w[i]) ++stats.affected_weights;
    w[i] = *mid;
  }
  return stats;
}

FaultInjectionSession::FaultInjectionSession(Module& model_root)
    : params_(crossbar_params(model_root)) {
  shadow_.resize(params_.size());
  hit_masks_.resize(params_.size());
}

const InjectionStats& FaultInjectionSession::inject(const StuckAtFaultModel& model,
                                                    const InjectorConfig& config, Rng& rng) {
  // A session is single-owner state (one per worker clone in the parallel
  // evaluator); concurrent inject() would corrupt the swap protocol. The
  // exchange is cheap and catches misuse in every build type.
  const bool was_busy = busy_.exchange(true, std::memory_order_acq_rel);
  FTPIM_CHECK(!was_busy, "FaultInjectionSession::inject: concurrent use of one session");
  // Clears the busy flag on every exit path, including a throwing copy phase.
  struct BusyClear {
    std::atomic<bool>& flag;
    ~BusyClear() { flag.store(false, std::memory_order_release); }
  } busy_clear{busy_};
  restore();
  stats_ = InjectionStats{};
  // Phase 1 (may allocate on first use): faulted copies into the shadows,
  // model untouched — an exception here leaves the clean weights live.
  for (std::size_t k = 0; k < params_.size(); ++k) {
    accumulate(stats_,
               apply_faults_to_copy(params_[k]->value, shadow_[k], model, config, rng,
                                    &hit_masks_[k]));
  }
  // Phase 2 (noexcept): publish — shadows now hold the clean tensors.
  for (std::size_t k = 0; k < params_.size(); ++k) {
    std::swap(params_[k]->value, shadow_[k]);
  }
  injected_ = true;
  return stats_;
}

void FaultInjectionSession::restore() noexcept {
  if (!injected_) return;
  for (std::size_t k = 0; k < params_.size(); ++k) std::swap(params_[k]->value, shadow_[k]);
  injected_ = false;
}

FaultInjectionSession::~FaultInjectionSession() { restore(); }

}  // namespace ftpim
