#include "src/fleet/virtual_device.hpp"

#include <utility>

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/checkpoint_error.hpp"
#include "src/common/rng.hpp"
#include "src/common/strformat.hpp"

namespace ftpim::fleet {
namespace {

/// Per-device aging stream id is the pool's OWN replica seed (see
/// ReplicaPool::advance_aging), so the aging master seed is fleet-shared.
AgingConfig aging_config_for(const FleetConfig& config, const DeviceProfile& profile) {
  AgingConfig aging;
  aging.p_new_per_interval = profile.aging_per_interval;
  aging.interval_batches = config.interval_batches;
  aging.sa0_fraction = config.sa0_fraction;
  aging.seed = derive_seed(config.seed, kAgingStream);
  return aging;
}

serve::ReplicaPoolConfig pool_config_for(const FleetConfig& config, const DeviceProfile& profile,
                                         int index) {
  serve::ReplicaPoolConfig pool;
  pool.num_replicas = 1;
  pool.p_sa = profile.p_sa;
  pool.sa0_fraction = config.sa0_fraction;
  pool.injector = config.injector;
  pool.seed = derive_seed(derive_seed(config.seed, kPoolStream), static_cast<std::uint64_t>(index));
  if (profile.datapath == Datapath::kQuantized) {
    pool.engine = serve::ReplicaEngine::kQuantized;
    pool.quantized = config.quantized;
    // Detection is part of the lifecycle model: DeviceStatus::abft_flagged
    // and the detection-driven policy need the checksums armed.
    pool.quantized.abft.enabled = true;
  }
  return pool;
}

}  // namespace

VirtualDevice::VirtualDevice(std::shared_ptr<const Module> source, const FleetConfig& config,
                             int index)
    : config_(&config),
      index_(index),
      profile_(draw_profile(config, index)),
      pool_(std::make_unique<serve::ReplicaPool>(std::move(source),
                                                 pool_config_for(config, profile_, index))),
      aging_(aging_config_for(config, profile_)),
      cells_(pool_->defect_map(0).cell_count()),
      window_(config.policy_config.window),
      transients_(DefectMap::empty(pool_->defect_map(0).cell_count())) {}

DeviceTick VirtualDevice::step(const RepairPolicy& policy, std::int64_t tick,
                               const CanarySet& probe) {
  DeviceTick out;
  if (!alive()) return out;
  out.was_alive = true;

  // 1. Serve this tick's traffic slice (advances the aging clock).
  served_batches_ += profile_.batches_per_tick;

  // 2. Age the die up to the interval the batch clock reached.
  const std::int64_t added =
      pool_->advance_aging(0, aging_, aging_.intervals_at(served_batches_));
  out.aged_cells = added;
  aged_cells_ += added;
  if (added > 0 && quantized() && transients_.fault_count() > 0) {
    // advance_aging re-applied the persistent map over the engines; layer
    // the surviving upsets back on top (last-write-wins on overlap).
    pool_->deployment(0)->apply_defect_map(transients_);
  }

  // 3. Transient upsets (quantized only — see FleetConfig). The burst is a
  // pure function of (seed, device, tick), so a resumed sweep replays the
  // exact upsets an uninterrupted one took.
  if (quantized() && config_->p_transient_per_tick > 0.0) {
    Rng rng(derive_seed(derive_seed(derive_seed(config_->seed, kTransientStream),
                                    static_cast<std::uint64_t>(index_)),
                        static_cast<std::uint64_t>(tick)));
    const StuckAtFaultModel upset(config_->p_transient_per_tick, config_->sa0_fraction);
    const std::int64_t landed = transients_.merge_from(DefectMap::sample(cells_, upset, rng));
    out.transient_cells = landed;
    transient_cells_ += landed;
    if (landed > 0) pool_->deployment(0)->apply_defect_map(transients_);
  }

  // 4. Probe: the device's real inference over the fleet-shared canary set.
  const Tensor logits = pool_->replica(0).forward(probe.inputs, /*training=*/false);
  const int passes = score_canary(logits, probe);
  out.probe_accuracy =
      static_cast<double>(passes) / static_cast<double>(probe.count());
  last_probe_accuracy_ = out.probe_accuracy;
  for (int i = 0; i < passes; ++i) window_.record(true);
  for (int i = passes; i < static_cast<int>(probe.count()); ++i) window_.record(false);

  // 5. ABFT drain: did the probe's MVM checksums ring?
  bool flagged = false;
  if (quantized() && pool_->abft_armed()) {
    for (const abft::TileFaultReport& report : pool_->take_abft_reports(0)) {
      if (!report.clean()) flagged = true;
    }
  }
  if (flagged) {
    ++detections_;
    ++consecutive_detections_;
    out.detections = 1;
  } else {
    consecutive_detections_ = 0;
  }
  ++ticks_since_heal_;

  // 6. Death check: below the floor = Kaplan-Meier event, permanent. The
  // policy never sees the tick that killed the device (no post-mortem
  // repairs — a device that degraded this far is presumed unrecoverable in
  // the field).
  if (out.probe_accuracy < config_->accuracy_floor) {
    dead_at_ = tick;
    out.died = true;
    return out;
  }

  // 7. Maintenance: the policy reads this tick's status and acts.
  DeviceStatus status;
  status.tick = tick;
  status.probe_accuracy = out.probe_accuracy;
  status.window_score = window_.success_rate();
  status.window_size = window_.size();
  status.abft_flagged = flagged;
  status.consecutive_detections = consecutive_detections_;
  status.ticks_since_heal = ticks_since_heal_;
  switch (policy.decide(status)) {
    case RepairActionKind::kNone: break;
    case RepairActionKind::kScrub:
      do_refresh();
      out.scrubs = 1;
      break;
    case RepairActionKind::kRepair:
      do_repair();
      out.repairs = 1;
      break;
  }
  return out;
}

void VirtualDevice::do_refresh() {
  // Re-program the die: transients heal, persistent faults come back, ABFT
  // baseline (manufacturing reference) stays. The window is NOT reset — the
  // device is the same die, so its history still predicts its health — and
  // neither is the detection streak: persistent damage that keeps ringing
  // through refreshes is exactly what escalates to a repair.
  pool_->refresh(0);
  transients_ = DefectMap::empty(cells_);
  ++scrubs_;
  ticks_since_heal_ = 0;
}

void VirtualDevice::do_repair() {
  // Swap the device: fresh die, fresh manufacturing map (next generation),
  // fresh aging clock. Everything observed about the old die is forgotten.
  pool_->repair(0);
  transients_ = DefectMap::empty(cells_);
  window_.reset();
  served_batches_ = 0;
  consecutive_detections_ = 0;
  ++repairs_;
  ticks_since_heal_ = 0;
}

void VirtualDevice::encode_state(ByteWriter& out) const {
  out.i64(index_);
  out.i64(dead_at_);
  out.i64(pool_->generation(0));
  out.i64(pool_->aged_intervals(0));
  out.i64(served_batches_);
  out.i64(ticks_since_heal_);
  out.i64(consecutive_detections_);
  out.i64(repairs_);
  out.i64(scrubs_);
  out.i64(detections_);
  out.i64(aged_cells_);
  out.i64(transient_cells_);
  out.f64(last_probe_accuracy_);
  window_.encode(out);
  transients_.encode(out);
  // Echo of the persistent map: redundant with (config, generation,
  // aged_intervals) by construction, which is the point — restore_state
  // replays those and cross-checks against this echo.
  pool_->defect_map(0).encode(out);
}

void VirtualDevice::restore_state(ByteReader& in) {
  const std::int64_t recorded_index = in.i64();
  if (recorded_index != index_) {
    throw CheckpointError(CheckpointErrorKind::kStateMismatch, "FLDV",
                          detail::format_msg("device record %lld restored into device %d",
                                             static_cast<long long>(recorded_index), index_));
  }
  dead_at_ = in.i64();
  const std::int64_t generation = in.i64();
  const std::int64_t aged_intervals = in.i64();
  if (generation < 0 || aged_intervals < 0) {
    throw CheckpointError(CheckpointErrorKind::kFormat, "FLDV",
                          "negative generation or aged_intervals");
  }
  served_batches_ = in.i64();
  ticks_since_heal_ = in.i64();
  consecutive_detections_ = in.i64();
  repairs_ = in.i64();
  scrubs_ = in.i64();
  detections_ = in.i64();
  aged_cells_ = in.i64();
  transient_cells_ = in.i64();
  last_probe_accuracy_ = in.f64();
  window_ = OutcomeWindow::decode(in);
  DefectMap transients = DefectMap::decode(in);
  DefectMap map_echo = DefectMap::decode(in);

  // Replay the lifecycle: each repair advances the pool one generation, then
  // aging grows the final die's map to where the checkpoint left it.
  for (std::int64_t g = 0; g < generation; ++g) pool_->repair(0);
  pool_->advance_aging(0, aging_, aged_intervals);

  // Cross-check: the replayed map must MATCH the checkpoint's echo exactly,
  // or the checkpoint came from a different config/seed than this fleet.
  ByteWriter replayed;
  pool_->defect_map(0).encode(replayed);
  ByteWriter recorded;
  map_echo.encode(recorded);
  if (replayed.bytes() != recorded.bytes()) {
    throw CheckpointError(
        CheckpointErrorKind::kStateMismatch, "FLDV",
        detail::format_msg("device %d: replayed defect map (gen %lld, %lld intervals) does not "
                           "match the checkpointed map",
                           index_, static_cast<long long>(generation),
                           static_cast<long long>(aged_intervals)));
  }

  if (transients.cell_count() != cells_) {
    throw CheckpointError(CheckpointErrorKind::kStateMismatch, "FLDV",
                          detail::format_msg("device %d: transient map covers %lld cells, die has "
                                             "%lld",
                                             index_, static_cast<long long>(transients.cell_count()),
                                             static_cast<long long>(cells_)));
  }
  transients_ = std::move(transients);
  if (quantized() && transients_.fault_count() > 0) {
    pool_->deployment(0)->apply_defect_map(transients_);
  }
}

}  // namespace ftpim::fleet
