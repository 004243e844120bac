// In-service defect aging: DefectMap mutation (merge_from / stuck), the
// deterministic AgingModel (interval composability), map-based fault
// application against the differential readout math, and the ReplicaPool
// aging/repair lifecycle. Suite names start with Aging* so scripts/ci.sh's
// TSan leg picks them up.
#include "src/reram/aging.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/common/check.hpp"
#include "src/models/mlp.hpp"
#include "src/nn/module.hpp"
#include "src/reram/conductance.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/serve/replica_pool.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

bool same_faults(const DefectMap& a, const DefectMap& b) {
  if (a.cell_count() != b.cell_count() || a.fault_count() != b.fault_count()) return false;
  for (std::size_t i = 0; i < a.faults().size(); ++i) {
    if (a.faults()[i].cell_index != b.faults()[i].cell_index ||
        a.faults()[i].type != b.faults()[i].type) {
      return false;
    }
  }
  return true;
}

// --- DefectMap mutation ------------------------------------------------------

TEST(AgingDefectMap, EmptyMapHasNoFaults) {
  const DefectMap map = DefectMap::empty(100);
  EXPECT_EQ(map.cell_count(), 100);
  EXPECT_EQ(map.fault_count(), 0);
  EXPECT_FALSE(map.stuck(0));
  EXPECT_THROW(DefectMap::empty(-1), ContractViolation);
}

TEST(AgingDefectMap, MergeFirstFaultWinsAndCountsAdded) {
  DefectMap base = DefectMap::empty(10);
  StuckAtFaultModel all_off(1.0, /*sa0_fraction=*/1.0);
  StuckAtFaultModel all_on(1.0, /*sa0_fraction=*/0.0);
  Rng r1(1), r2(2);
  DefectMap off_map = DefectMap::sample(10, all_off, r1);  // every cell stuck-off
  DefectMap on_map = DefectMap::sample(10, all_on, r2);    // every cell stuck-on
  ASSERT_EQ(off_map.fault_count(), 10);
  ASSERT_EQ(on_map.fault_count(), 10);

  EXPECT_EQ(base.merge_from(off_map), 10);
  // Same cells failing again with the other polarity: nothing is added and
  // every cell keeps its ORIGINAL fault type (a stuck cell cannot re-fail).
  EXPECT_EQ(base.merge_from(on_map), 0);
  EXPECT_EQ(base.fault_count(), 10);
  EXPECT_EQ(base.count(FaultType::kStuckOff), 10);
  EXPECT_EQ(base.count(FaultType::kStuckOn), 0);
  for (std::int64_t c = 0; c < 10; ++c) EXPECT_TRUE(base.stuck(c));
}

TEST(AgingDefectMap, MergeKeepsSortedOrderAndRejectsMismatch) {
  StuckAtFaultModel model(0.3);
  Rng ra(11), rb(12);
  DefectMap a = DefectMap::sample(500, model, ra);
  const DefectMap b = DefectMap::sample(500, model, rb);
  const std::int64_t before = a.fault_count();
  const std::int64_t added = a.merge_from(b);
  EXPECT_EQ(a.fault_count(), before + added);
  for (std::size_t i = 1; i < a.faults().size(); ++i) {
    EXPECT_LT(a.faults()[i - 1].cell_index, a.faults()[i].cell_index);
  }
  for (const CellFault& f : b.faults()) EXPECT_TRUE(a.stuck(f.cell_index));

  DefectMap other = DefectMap::empty(400);
  EXPECT_THROW((void)other.merge_from(b), ContractViolation);
}

// --- AgingModel --------------------------------------------------------------

TEST(AgingModel, ValidatesConfig) {
  AgingConfig bad;
  bad.p_new_per_interval = 1.5;
  EXPECT_THROW(AgingModel{bad}, ContractViolation);
  bad = AgingConfig{};
  bad.interval_batches = 0;
  EXPECT_THROW(AgingModel{bad}, ContractViolation);
}

TEST(AgingModel, IntervalsAtCountsWholeIntervals) {
  AgingConfig cfg;
  cfg.p_new_per_interval = 0.01;
  cfg.interval_batches = 8;
  const AgingModel aging(cfg);
  EXPECT_EQ(aging.intervals_at(0), 0);
  EXPECT_EQ(aging.intervals_at(7), 0);
  EXPECT_EQ(aging.intervals_at(8), 1);
  EXPECT_EQ(aging.intervals_at(17), 2);
  EXPECT_EQ(aging.intervals_at(-3), 0);
}

TEST(AgingModel, DisabledAddsNothing) {
  const AgingModel aging(AgingConfig{});  // p = 0
  EXPECT_FALSE(aging.config().enabled());
  DefectMap map = DefectMap::empty(1000);
  EXPECT_EQ(aging.evolve(map, /*device_stream=*/5, 0, 10), 0);
  EXPECT_EQ(map.fault_count(), 0);
}

TEST(AgingModel, EvolutionComposesAndIsDeterministic) {
  AgingConfig cfg;
  cfg.p_new_per_interval = 0.02;
  cfg.seed = 777;
  const AgingModel aging(cfg);
  constexpr std::int64_t kCells = 4000;
  constexpr std::uint64_t kDevice = 3;

  // One shot 0 -> 6.
  DefectMap oneshot = DefectMap::empty(kCells);
  const std::int64_t added_all = aging.evolve(oneshot, kDevice, 0, 6);

  // Stepwise 0 -> 2 -> 6 must land on the bit-identical map.
  DefectMap stepwise = DefectMap::empty(kCells);
  std::int64_t added_steps = aging.evolve(stepwise, kDevice, 0, 2);
  added_steps += aging.evolve(stepwise, kDevice, 2, 6);
  EXPECT_EQ(added_all, added_steps);
  EXPECT_TRUE(same_faults(oneshot, stepwise));
  EXPECT_GT(oneshot.fault_count(), 0);

  // Same inputs, fresh model object: still identical (pure function of
  // (seed, device_stream, interval)).
  DefectMap again = DefectMap::empty(kCells);
  (void)AgingModel(cfg).evolve(again, kDevice, 0, 6);
  EXPECT_TRUE(same_faults(oneshot, again));

  // A different device stream ages differently.
  DefectMap other_device = DefectMap::empty(kCells);
  (void)aging.evolve(other_device, kDevice + 1, 0, 6);
  EXPECT_FALSE(same_faults(oneshot, other_device));
}

TEST(AgingModel, EvolveIsMonotone) {
  AgingConfig cfg;
  cfg.p_new_per_interval = 0.05;
  const AgingModel aging(cfg);
  DefectMap map = DefectMap::empty(2000);
  std::int64_t prev = 0;
  for (std::int64_t k = 0; k < 5; ++k) {
    (void)aging.evolve(map, 0, k, k + 1);
    EXPECT_GE(map.fault_count(), prev);
    prev = map.fault_count();
  }
  EXPECT_THROW((void)aging.evolve(map, 0, 5, 4), ContractViolation);
}

// --- apply_defect_map_to_model ----------------------------------------------

TEST(AgingMapApply, MatchesDifferentialReadoutMath) {
  // Single Linear layer, hand-crafted map: weight i owns cells 2i / 2i+1.
  auto net = make_mlp({4, 3}, 31);
  const std::int64_t cells = crossbar_cell_count(*net);
  Param* weight = nullptr;
  for (Param* p : parameters_of(*net)) {
    if (p->kind == ParamKind::kCrossbarWeight) weight = p;
  }
  ASSERT_NE(weight, nullptr);
  ASSERT_EQ(cells, 2 * weight->value.numel());
  const Tensor clean = weight->value;
  const InjectorConfig config;
  const DifferentialMapper mapper(kDeviceRange, clean.abs_max());

  // Draw a dense map through the aging machinery (rate high enough that
  // several cells fault) and check every weight against hand-computed
  // differential readout below.
  DefectMap map = DefectMap::empty(cells);
  AgingConfig acfg;
  acfg.p_new_per_interval = 0.2;
  acfg.seed = 4242;
  const AgingModel aging(acfg);
  (void)aging.evolve(map, /*device_stream=*/0, 0, 1);
  ASSERT_GT(map.fault_count(), 0);

  const InjectionStats stats = apply_defect_map_to_model(*net, map, config);
  EXPECT_EQ(stats.cells, cells);
  EXPECT_EQ(stats.faulted_cells, map.fault_count());

  for (std::int64_t i = 0; i < clean.numel(); ++i) {
    const bool faulted = map.stuck(2 * i) || map.stuck(2 * i + 1);
    if (!faulted) {
      // Analog cells (quant_levels == 0): fault-free weights are untouched,
      // not round-tripped through the pair encoding (which costs an ulp).
      EXPECT_EQ(weight->value[i], clean[i]) << "weight " << i;
      continue;
    }
    CellPair pair = mapper.to_cells(clean[i]);
    if (map.stuck(2 * i)) {
      const FaultType t = map.faults()[static_cast<std::size_t>(
          std::lower_bound(map.faults().begin(), map.faults().end(), 2 * i,
                           [](const CellFault& f, std::int64_t c) { return f.cell_index < c; }) -
          map.faults().begin())].type;
      pair.g_pos = t == FaultType::kStuckOff ? kDeviceRange.g_min : kDeviceRange.g_max;
    }
    if (map.stuck(2 * i + 1)) {
      const FaultType t = map.faults()[static_cast<std::size_t>(
          std::lower_bound(map.faults().begin(), map.faults().end(), 2 * i + 1,
                           [](const CellFault& f, std::int64_t c) { return f.cell_index < c; }) -
          map.faults().begin())].type;
      pair.g_neg = t == FaultType::kStuckOff ? kDeviceRange.g_min : kDeviceRange.g_max;
    }
    const float expected = mapper.to_weight(pair);
    EXPECT_EQ(weight->value[i], expected) << "weight " << i;
  }
}

TEST(AgingMapApply, EmptyMapIsIdentityAndMismatchThrows) {
  auto net = make_mlp({6, 5, 2}, 33);
  std::vector<Tensor> before;
  for (Param* p : parameters_of(*net)) before.push_back(p->value);
  const std::int64_t cells = crossbar_cell_count(*net);
  const InjectionStats stats = apply_defect_map_to_model(*net, DefectMap::empty(cells), {});
  EXPECT_EQ(stats.faulted_cells, 0);
  EXPECT_EQ(stats.affected_weights, 0);
  std::size_t k = 0;
  for (Param* p : parameters_of(*net)) {
    EXPECT_EQ(p->value.vec(), before[k++].vec());
  }
  EXPECT_THROW((void)apply_defect_map_to_model(*net, DefectMap::empty(cells + 2), {}),
               ContractViolation);
}

// --- ReplicaPool lifecycle ---------------------------------------------------

serve::ReplicaPoolConfig pool_config(int replicas, double p_sa, std::uint64_t seed) {
  serve::ReplicaPoolConfig cfg;
  cfg.num_replicas = replicas;
  cfg.p_sa = p_sa;
  cfg.seed = seed;
  return cfg;
}

TEST(AgingPool, AdvanceAgingIsDeterministicAcrossPools) {
  const auto model = make_mlp({8, 16, 4}, 55);
  AgingConfig acfg;
  acfg.p_new_per_interval = 0.05;
  acfg.seed = 909;
  const AgingModel aging(acfg);

  serve::ReplicaPool a(*model, pool_config(2, 0.01, 42));
  serve::ReplicaPool b(*model, pool_config(2, 0.01, 42));
  const std::int64_t added_a = a.advance_aging(0, aging, 3);
  const std::int64_t added_b = b.advance_aging(0, aging, 3);
  EXPECT_EQ(added_a, added_b);
  EXPECT_GT(added_a, 0);
  EXPECT_EQ(a.aged_intervals(0), 3);
  EXPECT_TRUE(same_faults(a.defect_map(0), b.defect_map(0)));

  // Aged weights agree bit-for-bit; stepping a->3 in two hops also agrees.
  serve::ReplicaPool c(*model, pool_config(2, 0.01, 42));
  (void)c.advance_aging(0, aging, 1);
  (void)c.advance_aging(0, aging, 3);
  const auto params_a = parameters_of(a.replica(0));
  const auto params_c = parameters_of(c.replica(0));
  ASSERT_EQ(params_a.size(), params_c.size());
  for (std::size_t i = 0; i < params_a.size(); ++i) {
    EXPECT_EQ(params_a[i]->value.vec(), params_c[i]->value.vec());
  }
  // Aging replica 0 never touched replica 1.
  EXPECT_EQ(a.aged_intervals(1), 0);
  EXPECT_TRUE(same_faults(a.defect_map(1), b.defect_map(1)));
}

TEST(AgingPool, AgingGrowsFaultsMonotonically) {
  const auto model = make_mlp({8, 16, 4}, 55);
  AgingConfig acfg;
  acfg.p_new_per_interval = 0.02;
  const AgingModel aging(acfg);
  serve::ReplicaPool pool(*model, pool_config(1, 0.02, 7));
  const std::int64_t base_faults = pool.defect_map(0).fault_count();
  (void)pool.advance_aging(0, aging, 2);
  const std::int64_t aged_faults = pool.defect_map(0).fault_count();
  EXPECT_GT(aged_faults, base_faults);
  EXPECT_EQ(pool.injection_stats(0).faulted_cells, aged_faults);
  // Re-requesting an already-reached interval is a no-op.
  EXPECT_EQ(pool.advance_aging(0, aging, 2), 0);
  EXPECT_EQ(pool.advance_aging(0, aging, 1), 0);
}

TEST(AgingPool, RepairInstallsFreshDeviceAndLeavesSourcePristine) {
  const auto model = make_mlp({8, 16, 4}, 77);
  std::vector<Tensor> source_before;
  for (Param* p : parameters_of(*model)) source_before.push_back(p->value);

  serve::ReplicaPool pool(*model, pool_config(1, 0.05, 13));
  const DefectMap gen0 = pool.defect_map(0);
  ASSERT_GT(gen0.fault_count(), 0);
  EXPECT_EQ(pool.generation(0), 0);

  AgingConfig acfg;
  acfg.p_new_per_interval = 0.05;
  (void)pool.advance_aging(0, AgingModel(acfg), 2);

  pool.repair(0);
  EXPECT_EQ(pool.generation(0), 1);
  EXPECT_EQ(pool.aged_intervals(0), 0);
  // New physical device: a fresh manufacturing map from the next seed
  // generation, not the old one grown or cleared.
  EXPECT_FALSE(same_faults(pool.defect_map(0), gen0));
  EXPECT_GT(pool.defect_map(0).fault_count(), 0);
  EXPECT_NE(pool.replica_seed(0), derive_seed(13, 0));

  // Repairs are reproducible: a second pool repaired the same way matches.
  serve::ReplicaPool other(*model, pool_config(1, 0.05, 13));
  (void)other.advance_aging(0, AgingModel(acfg), 2);
  other.repair(0);
  EXPECT_TRUE(same_faults(pool.defect_map(0), other.defect_map(0)));
  const auto params_a = parameters_of(pool.replica(0));
  const auto params_b = parameters_of(other.replica(0));
  for (std::size_t i = 0; i < params_a.size(); ++i) {
    EXPECT_EQ(params_a[i]->value.vec(), params_b[i]->value.vec());
  }

  // Source model untouched through injection, aging, and repair.
  std::size_t k = 0;
  for (Param* p : parameters_of(*model)) {
    EXPECT_EQ(p->value.vec(), source_before[k++].vec());
  }
}

}  // namespace
}  // namespace ftpim
