// One virtual edge device of the fleet simulator.
//
// A VirtualDevice wraps a single-replica ReplicaPool (the serve layer's
// device abstraction: clone of the clean model + persistent defect map +
// optional quantized deployment) and drives it through the fault lifecycle
// one virtual-clock tick at a time:
//
//   serve -> age -> transient upsets -> probe -> ABFT drain -> death check
//         -> repair-policy action
//
// Every device's pool shares the fleet's one pristine source, so a device
// stores its own replica only.
//
// Traffic is modeled as a served-batch COUNT that advances the aging clock —
// running real traffic batches for thousands of devices would dominate
// wall-time without changing any signal the policies see; the probe forward
// (the device's real inference over the shared canary set) is the measured
// compute, and its accuracy is the device's health ground truth.
//
// Transient upsets are QUANTIZED-datapath only: they land non-destructively
// in the engines' level domain, where a refresh (re-program) can heal them
// and a checkpoint can replay them. The float path folds faults into weights
// — not invertible, hence not replay-safe for run-time upsets — so float
// devices model manufacturing + aging faults only.
//
// Determinism: every stochastic stream is a pure function of
// (FleetConfig::seed, device index, tick/interval index) — profile draw,
// defect maps, aging batches, transient bursts. A device's whole trajectory
// is therefore independent of every other device and of thread count, which
// is what lets FleetSimulator fan devices out over parallel_for_chunks and
// restore them in parallel from a checkpoint.
//
// Checkpointing: encode_state() captures the device's evolving state
// (counters, outcome window, transient map) plus an echo of its persistent
// defect map. restore_state() rebuilds the pool by REPLAY — repair() per
// generation, advance_aging() to the recorded interval — then byte-compares
// the reconstructed map against the echo and throws
// CheckpointError(kStateMismatch) on any divergence, so a checkpoint from a
// different seed/config can never silently resume.
#pragma once

#include <cstdint>
#include <memory>

#include "src/common/stats.hpp"
#include "src/core/evaluator.hpp"
#include "src/fleet/fleet_config.hpp"
#include "src/fleet/repair_policy.hpp"
#include "src/reram/aging.hpp"
#include "src/reram/defect_map.hpp"
#include "src/serve/replica_pool.hpp"

namespace ftpim::fleet {

/// What one device did during one tick — the simulator's aggregation input.
struct DeviceTick {
  bool was_alive = false;  ///< entered the tick alive (dead devices no-op)
  bool died = false;       ///< probe fell below the accuracy floor THIS tick
  double probe_accuracy = 1.0;
  std::int64_t repairs = 0;          ///< device swaps this tick (0 or 1)
  std::int64_t scrubs = 0;           ///< whole-die refreshes this tick (0 or 1)
  std::int64_t detections = 0;       ///< ABFT flagged this tick (0 or 1)
  std::int64_t aged_cells = 0;       ///< cells newly stuck by aging this tick
  std::int64_t transient_cells = 0;  ///< cells newly upset this tick
};

class VirtualDevice {
 public:
  /// Builds device `index` of the fleet: draws its profile, clones the
  /// shared pristine `source` into a one-replica pool (which keeps `source`
  /// for re-deploys) with its manufacturing defect map, and (on the
  /// quantized datapath) deploys with ABFT checksums armed.
  VirtualDevice(std::shared_ptr<const Module> source, const FleetConfig& config, int index);

  VirtualDevice(const VirtualDevice&) = delete;
  VirtualDevice& operator=(const VirtualDevice&) = delete;

  /// Advances the device through virtual tick `tick` (see file comment).
  /// `policy` decides the end-of-tick maintenance action; `probe` is the
  /// fleet-shared canary set. Dead devices return a default DeviceTick.
  /// Single-owner: one thread drives a given device at a time.
  DeviceTick step(const RepairPolicy& policy, std::int64_t tick, const CanarySet& probe);

  [[nodiscard]] int index() const noexcept { return index_; }
  [[nodiscard]] const DeviceProfile& profile() const noexcept { return profile_; }
  [[nodiscard]] bool alive() const noexcept { return dead_at_ < 0; }
  /// Tick the device died on, or -1 while alive.
  [[nodiscard]] std::int64_t dead_at() const noexcept { return dead_at_; }

  // Lifetime totals (survive repairs; the policy-comparison accounting).
  [[nodiscard]] std::int64_t repairs() const noexcept { return repairs_; }
  [[nodiscard]] std::int64_t scrubs() const noexcept { return scrubs_; }
  [[nodiscard]] std::int64_t detections() const noexcept { return detections_; }
  [[nodiscard]] std::int64_t aged_cells() const noexcept { return aged_cells_; }
  [[nodiscard]] std::int64_t transient_cells() const noexcept { return transient_cells_; }

  /// Probe accuracy measured on the most recent live tick (1.0 before the
  /// first step).
  [[nodiscard]] double last_probe_accuracy() const noexcept { return last_probe_accuracy_; }

  /// The underlying pool (tests introspect maps/generations through it).
  [[nodiscard]] const serve::ReplicaPool& pool() const noexcept { return *pool_; }

  /// Serializes the device's evolving state (see file comment). Layout is
  /// the FLDV chunk's per-device record.
  void encode_state(ByteWriter& out) const;

  /// Restores an encode_state() record into this freshly constructed device
  /// by replaying its lifecycle. Throws CheckpointError on malformed input
  /// or on any mismatch with the device this config would have produced.
  void restore_state(ByteReader& in);

 private:
  [[nodiscard]] bool quantized() const noexcept {
    return profile_.datapath == Datapath::kQuantized;
  }
  void do_refresh();
  void do_repair();

  const FleetConfig* config_;  ///< owned by FleetSimulator; outlives devices
  int index_ = 0;
  DeviceProfile profile_;
  std::unique_ptr<serve::ReplicaPool> pool_;
  AgingModel aging_;
  std::int64_t cells_ = 0;  ///< model-level cell count (transient sampling)

  // Evolving state — everything encode_state() must capture.
  std::int64_t dead_at_ = -1;
  std::int64_t served_batches_ = 0;  ///< since last repair (drives aging)
  std::int64_t ticks_since_heal_ = 0;
  std::int64_t consecutive_detections_ = 0;
  std::int64_t repairs_ = 0;
  std::int64_t scrubs_ = 0;
  std::int64_t detections_ = 0;
  std::int64_t aged_cells_ = 0;
  std::int64_t transient_cells_ = 0;
  double last_probe_accuracy_ = 1.0;
  OutcomeWindow window_;
  DefectMap transients_;  ///< accumulated un-healed upsets (quantized only)
};

}  // namespace ftpim::fleet
