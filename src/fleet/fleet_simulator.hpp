// Fleet-at-scale fault-lifecycle simulator (DESIGN.md §15).
//
// FleetSimulator runs FleetConfig::num_devices VirtualDevices over a shared
// virtual clock: step() advances every live device one tick — serve, age,
// take transient upsets, probe, consult the repair policy — then reduces the
// per-device outcomes into one TickAggregate. run() steps to the configured
// horizon and returns the policy-comparison summary.
//
// Parallelism: devices are mutually independent by construction (every
// stochastic stream is keyed by device index), so each tick fans the device
// loop out over parallel_for_chunks with results landing in per-device slots;
// the reduction then walks the slots serially in index order. Aggregates —
// and therefore survival curves, percentile bands, checkpoints, everything —
// are bit-identical at any FTPIM_THREADS setting.
//
// Crash-safe sweeps: with FleetConfig::checkpoint_path set, the simulator
// writes an FTCK checkpoint (atomically, CRC32C-framed) every
// checkpoint_every_ticks ticks and at the end of run(). Chunks:
//
//   FLCF  canonical FleetConfig echo (resume() byte-compares and refuses a
//         mismatched config with CheckpointError kStateMismatch)
//   FLCU  cursor: next tick to simulate
//   FLTL  the TickAggregate timeline so far
//   FLDV  per-device records, each u64-length-prefixed so restore can fan
//         device replay out over parallel_for_chunks
//
// resume() restores a freshly constructed simulator to the checkpoint's
// cursor; stepping to the horizon then reproduces the uninterrupted run's
// timeline BIT-EXACTLY (tests/fleet_resume_test.cpp kills a sweep at every
// checkpoint boundary and diffs the curves).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/evaluator.hpp"
#include "src/fleet/fleet_config.hpp"
#include "src/fleet/repair_policy.hpp"
#include "src/fleet/survival.hpp"
#include "src/fleet/virtual_device.hpp"
#include "src/nn/module.hpp"

namespace ftpim::fleet {

class FleetSimulator {
 public:
  /// Validates `config`, clones `source` once as the pristine model every
  /// device shares, builds the probe set from it, and constructs the fleet
  /// (device construction — profile draw, replica clone, defect injection,
  /// deployment — fans out in parallel).
  FleetSimulator(const Module& source, const FleetConfig& config);

  FleetSimulator(const FleetSimulator&) = delete;
  FleetSimulator& operator=(const FleetSimulator&) = delete;

  /// Advances the whole fleet one tick and appends the tick's aggregate.
  /// Writes a checkpoint when the cadence (or the horizon) says so.
  void step();

  /// Steps until config().ticks ticks have been simulated (no-op if already
  /// there — a resumed-at-the-horizon sweep just returns its summary), then
  /// returns the final rollup.
  FleetSummary run();

  /// Restores this simulator to a checkpoint written by a sweep with a
  /// byte-identical config. Must be called before any step() — the restore
  /// replaces the freshly built tick-0 state. Throws CheckpointError on any
  /// corruption or config/seed mismatch.
  void resume(const std::string& path);

  /// Writes the current sweep state to `path` (atomic; see file comment).
  void checkpoint_to(const std::string& path) const;

  [[nodiscard]] const FleetConfig& config() const noexcept { return config_; }
  /// Next tick step() will simulate (== ticks completed so far).
  [[nodiscard]] std::int64_t next_tick() const noexcept { return next_tick_; }
  [[nodiscard]] const std::vector<TickAggregate>& timeline() const noexcept { return timeline_; }
  [[nodiscard]] int device_count() const noexcept { return static_cast<int>(devices_.size()); }
  [[nodiscard]] const VirtualDevice& device(int index) const { return *devices_.at(static_cast<std::size_t>(index)); }
  [[nodiscard]] const CanarySet& probe() const noexcept { return probe_; }

  /// Per-device death ticks (-1 = still alive / censored), index order.
  [[nodiscard]] std::vector<std::int64_t> death_ticks() const;

  /// Rollup of the timeline so far (priced with config().policy_config).
  [[nodiscard]] FleetSummary summary() const;

 private:
  void maybe_checkpoint() const;

  FleetConfig config_;
  /// Pristine clone, shared by every device's pool: the fleet's only copy.
  std::shared_ptr<const Module> source_;
  CanarySet probe_;
  std::unique_ptr<RepairPolicy> policy_;
  std::vector<std::unique_ptr<VirtualDevice>> devices_;
  std::vector<TickAggregate> timeline_;
  std::int64_t next_tick_ = 0;
};

}  // namespace ftpim::fleet
