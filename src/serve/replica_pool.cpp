#include "src/serve/replica_pool.hpp"

#include <utility>

#include "src/common/check.hpp"
#include "src/common/rng.hpp"

namespace ftpim::serve {

ReplicaPool::ReplicaPool(std::shared_ptr<const Module> source, const ReplicaPoolConfig& config)
    : config_(config), source_(std::move(source)) {
  FTPIM_CHECK(source_ != nullptr, "ReplicaPool: null source");
  FTPIM_CHECK_GT(config.num_replicas, 0, "ReplicaPool: num_replicas");
  FTPIM_CHECK(config.p_sa >= 0.0 && config.p_sa <= 1.0, "ReplicaPool: p_sa %g outside [0,1]",
              config.p_sa);
  FTPIM_CHECK(config.sa0_fraction >= 0.0 && config.sa0_fraction <= 1.0,
              "ReplicaPool: sa0_fraction outside [0,1]");
  if (config.engine == ReplicaEngine::kQuantized) config.quantized.validate();

  replicas_.resize(static_cast<std::size_t>(config.num_replicas));
  for (int r = 0; r < config.num_replicas; ++r) {
    install(replicas_[static_cast<std::size_t>(r)], r);
  }
}

ReplicaPool::ReplicaPool(const Module& source, const ReplicaPoolConfig& config)
    : ReplicaPool(std::shared_ptr<const Module>(source.clone()), config) {}

std::uint64_t ReplicaPool::seed_for(int index, int generation) const {
  // Generation 0 keeps the historical one-level stream (a fleet that never
  // repairs reproduces pre-lifecycle pools bit-for-bit); repairs descend one
  // more derive_seed level so every physical device gets its own stream.
  const std::uint64_t base = derive_seed(config_.seed, static_cast<std::uint64_t>(index));
  if (generation == 0) return base;
  return derive_seed(base, static_cast<std::uint64_t>(generation));
}

namespace {

/// Stats of a level-domain map application. Unlike the float injector this
/// counts weights with at least one stuck cell (the float path counts
/// weights whose VALUE changed, which excludes benign hits like stuck-off
/// on an already-level-0 cell).
InjectionStats quantized_map_stats(const DefectMap& map) {
  InjectionStats stats;
  stats.cells = map.cell_count();
  stats.faulted_cells = map.fault_count();
  std::int64_t prev_weight = -1;
  for (const CellFault& f : map.faults()) {
    const std::int64_t w = f.cell_index / 2;
    if (w != prev_weight) {
      ++stats.affected_weights;
      prev_weight = w;
    }
  }
  return stats;
}

}  // namespace

void ReplicaPool::install(Replica& rep, int index) {
  rep.aged_intervals = 0;
  if (config_.engine == ReplicaEngine::kQuantized) {
    // Tear down any previous deployment BEFORE replacing the model it hooks.
    rep.deployment.reset();
    rep.model = source_->clone();
    rep.stats = InjectionStats{};
    rep.deployment = qinfer::deploy_quantized(*rep.model, config_.quantized);
    rep.map = DefectMap::empty(rep.deployment->cell_count());
    rep.stats.cells = rep.deployment->cell_count();
    if (config_.p_sa > 0.0) {
      const StuckAtFaultModel fault_model(config_.p_sa, config_.sa0_fraction);
      Rng rng(seed_for(index, rep.generation));
      rep.map = DefectMap::sample(rep.deployment->cell_count(), fault_model, rng);
      rep.deployment->apply_defect_map(rep.map);
      rep.stats = quantized_map_stats(rep.map);
    }
    // Accept the manufacturing defects of this die as the ABFT reference
    // state: an FT-trained network tolerates them, so they must not ring the
    // detector forever (and trigger repair thrash). Aging faults land AFTER
    // this baseline and are detected within one batch.
    if (rep.deployment->abft_enabled()) rep.deployment->abft_rebaseline();
    return;
  }
  // The one clone of a float replica's life; later installs reuse it.
  if (rep.model == nullptr) rep.model = source_->clone();
  const std::int64_t cells = crossbar_cell_count(*rep.model);
  if (config_.p_sa > 0.0) {
    const StuckAtFaultModel fault_model(config_.p_sa, config_.sa0_fraction);
    Rng rng(seed_for(index, rep.generation));
    rep.map = DefectMap::sample(cells, fault_model, rng);
  } else {
    // A pristine device still carries an empty map, so in-service aging has
    // a cell array to grow into.
    rep.map = DefectMap::empty(cells);
  }
  redeploy_float(rep);
}

void ReplicaPool::redeploy_float(Replica& rep) {
  // A map with no fault deploys the trained weights untouched: the analog
  // readout of a fault-free pair is the identity, so no quantization pass
  // runs even when the injector models conductance levels.
  const InjectorConfig injector = rep.map.fault_count() > 0 ? config_.injector : InjectorConfig{};
  rep.stats = apply_defect_map_to_copy(*source_, *rep.model, rep.map, injector);
}

const ReplicaPool::Replica& ReplicaPool::at(int index, const char* what) const {
  FTPIM_CHECK(index >= 0 && index < size(), "ReplicaPool::%s: index %d outside [0,%d)", what,
              index, size());
  return replicas_[static_cast<std::size_t>(index)];
}

ReplicaPool::Replica& ReplicaPool::at(int index, const char* what) {
  return const_cast<Replica&>(static_cast<const ReplicaPool*>(this)->at(index, what));
}

Module& ReplicaPool::replica(int index) { return *at(index, "replica").model; }

const Module& ReplicaPool::replica(int index) const { return *at(index, "replica").model; }

const InjectionStats& ReplicaPool::injection_stats(int index) const {
  return at(index, "injection_stats").stats;
}

const DefectMap& ReplicaPool::defect_map(int index) const { return at(index, "defect_map").map; }

int ReplicaPool::generation(int index) const { return at(index, "generation").generation; }

std::int64_t ReplicaPool::aged_intervals(int index) const {
  return at(index, "aged_intervals").aged_intervals;
}

std::uint64_t ReplicaPool::replica_seed(int index) const {
  const Replica& rep = at(index, "replica_seed");
  return seed_for(index, rep.generation);
}

void ReplicaPool::repair(int index) {
  Replica& rep = at(index, "repair");
  ++rep.generation;
  install(rep, index);
}

std::int64_t ReplicaPool::refresh(int index) {
  Replica& rep = at(index, "refresh");
  if (config_.engine == ReplicaEngine::kQuantized) {
    rep.deployment->clear_defects();
    if (rep.map.fault_count() > 0) rep.deployment->apply_defect_map(rep.map);
    rep.stats = quantized_map_stats(rep.map);
    std::int64_t tiles = 0;
    for (std::size_t i = 0; i < rep.deployment->layer_count(); ++i) {
      tiles += rep.deployment->engine(i).tile_count();
    }
    return tiles;
  }
  redeploy_float(rep);
  return 0;
}

std::int64_t ReplicaPool::advance_aging(int index, const AgingModel& aging,
                                        std::int64_t target_intervals) {
  Replica& rep = at(index, "advance_aging");
  if (target_intervals <= rep.aged_intervals) return 0;
  const std::int64_t added =
      aging.evolve(rep.map, seed_for(index, rep.generation), rep.aged_intervals, target_intervals);
  rep.aged_intervals = target_intervals;
  if (added > 0) {
    if (config_.engine == ReplicaEngine::kQuantized) {
      // Level-domain fault application is NON-destructive: the engines keep
      // clean programmed levels separately from faults, so the grown map
      // layers straight on — no pristine re-clone, no re-programming.
      rep.deployment->apply_defect_map(rep.map);
      rep.stats = quantized_map_stats(rep.map);
    } else {
      // Stuck-cell readback is lossy, so the grown map cannot be layered
      // onto the already-faulted weights: re-deploy from the pristine
      // source.
      redeploy_float(rep);
    }
  }
  return added;
}

const qinfer::QuantizedDeployment* ReplicaPool::deployment(int index) const {
  return at(index, "deployment").deployment.get();
}

qinfer::QuantizedDeployment* ReplicaPool::deployment(int index) {
  return at(index, "deployment").deployment.get();
}

std::vector<abft::TileFaultReport> ReplicaPool::take_abft_reports(int index) {
  Replica& rep = at(index, "take_abft_reports");
  FTPIM_CHECK(abft_armed() && rep.deployment != nullptr,
              "ReplicaPool::take_abft_reports: ABFT requires a quantized deployment");
  return rep.deployment->take_abft_reports();
}

std::int64_t ReplicaPool::scrub(int index, const std::vector<abft::TileFaultReport>& reports) {
  Replica& rep = at(index, "scrub");
  FTPIM_CHECK(abft_armed() && rep.deployment != nullptr,
              "ReplicaPool::scrub: ABFT requires a quantized deployment");
  const std::int64_t scrubbed = rep.deployment->scrub(reports);
  // Re-apply the persistent map: a scrub is "re-program the tile", not
  // "pretend the die never aged". Faults recorded in the map come back and,
  // if they keep tripping the checksum, escalate through the health monitor
  // to a real repair.
  if (scrubbed > 0) rep.deployment->apply_defect_map(rep.map);
  return scrubbed;
}

}  // namespace ftpim::serve
