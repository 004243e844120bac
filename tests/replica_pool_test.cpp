// Float re-deploys rewrite a replica in place. After every refresh,
// advance_aging and repair, a float replica's parameters must be
// memcmp-equal to a fresh clone of the pool's source with the replica's map
// applied, and no crossbar weight may have moved to new storage (no
// re-clone). Fleet devices must all read the same pristine source. Suite
// names start with Replica* so scripts/ci.sh's TSan leg runs them.
#include "src/serve/replica_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/fleet/fleet_simulator.hpp"
#include "src/models/mlp.hpp"
#include "src/models/small_cnn.hpp"
#include "src/reram/fault_injector.hpp"
#include "test_util.hpp"

namespace ftpim::serve {
namespace {

struct ModelCase {
  std::string name;
  std::function<std::unique_ptr<Module>()> make;
};

std::vector<ModelCase> model_cases() {
  return {
      {"SmallCNN",
       [] {
         return make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 4, .classes = 5, .seed = 3});
       }},
      {"MLP", [] { return make_mlp({16, 24, 4}, 7); }},
  };
}

/// Storage of every crossbar weight of `model`, in crossbar_params order.
std::vector<const float*> weight_storage(Module& model) {
  std::vector<const float*> out;
  for (const Param* p : crossbar_params(model)) out.push_back(p->value.data());
  return out;
}

/// The replica must equal source.clone() + apply_defect_map_to_model(map),
/// byte for byte, over EVERY parameter (biases and BN included), and report
/// the oracle's injection stats.
void expect_matches_oracle(ReplicaPool& pool, int r, const std::string& where) {
  SCOPED_TRACE(where + ", replica " + std::to_string(r));
  const std::unique_ptr<Module> oracle = pool.source().clone();
  const InjectionStats stats = apply_defect_map_to_model(*oracle, pool.defect_map(r), {});
  const std::vector<Param*> want = parameters_of(*oracle);
  const std::vector<Param*> got = parameters_of(pool.replica(r));
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t j = 0; j < want.size(); ++j) {
    ASSERT_EQ(want[j]->value.shape(), got[j]->value.shape()) << want[j]->name;
    EXPECT_EQ(std::memcmp(want[j]->value.data(), got[j]->value.data(),
                          static_cast<std::size_t>(want[j]->value.numel()) * sizeof(float)),
              0)
        << want[j]->name;
  }
  const InjectionStats& have = pool.injection_stats(r);
  EXPECT_EQ(have.cells, stats.cells);
  EXPECT_EQ(have.faulted_cells, stats.faulted_cells);
  EXPECT_EQ(have.affected_weights, stats.affected_weights);
}

/// Drives every replica of a float pool through several generations of
/// refresh -> aging -> repair, fanned out over the pool's replicas (each
/// replica is single-owner, all share the source), and checks each replica
/// against the oracle after every step.
void run_redeploy_oracle(const ModelCase& model_case, int threads) {
  SCOPED_TRACE(model_case.name + " at " + std::to_string(threads) + " threads");
  set_num_threads(threads);
  const std::unique_ptr<Module> source = model_case.make();
  ReplicaPoolConfig cfg;
  cfg.num_replicas = 4;
  cfg.p_sa = 0.04;
  cfg.seed = 1234;
  ReplicaPool pool(*source, cfg);
  const AgingModel aging(AgingConfig{.p_new_per_interval = 0.01, .seed = 88});

  std::vector<const Module*> models;
  std::vector<std::vector<const float*>> storage;
  for (int r = 0; r < pool.size(); ++r) {
    expect_matches_oracle(pool, r, "construction");
    models.push_back(&pool.replica(r));
    storage.push_back(weight_storage(pool.replica(r)));
  }
  const auto step_all = [&](const std::string& what, const std::function<void(int)>& op) {
    parallel_for(0, static_cast<std::size_t>(pool.size()),
                 [&](std::size_t r) { op(static_cast<int>(r)); });
    for (int r = 0; r < pool.size(); ++r) {
      expect_matches_oracle(pool, r, what);
      EXPECT_EQ(&pool.replica(r), models[static_cast<std::size_t>(r)]) << what;
      EXPECT_EQ(weight_storage(pool.replica(r)), storage[static_cast<std::size_t>(r)])
          << what << " moved a crossbar weight to new storage";
    }
  };

  std::int64_t aged = 0;
  for (int generation = 0; generation < 3; ++generation) {
    const std::string gen = "generation " + std::to_string(generation);
    step_all(gen + " refresh", [&](int r) { (void)pool.refresh(r); });
    for (int round = 1; round <= 2; ++round) {
      step_all(gen + " aging", [&](int r) {
        const std::int64_t added = pool.advance_aging(r, aging, pool.aged_intervals(r) + 2);
        if (r == 0) aged += added;  // replica 0's worker owns this counter
      });
    }
    step_all(gen + " repair", [&](int r) { pool.repair(r); });
    for (int r = 0; r < pool.size(); ++r) EXPECT_EQ(pool.generation(r), generation + 1);
  }
  EXPECT_GT(aged, 0) << "aging this fast must grow the maps";
  set_num_threads(0);
}

TEST(ReplicaRedeploy, FloatReplicasMatchTheCloneOracleAtOneThread) {
  for (const ModelCase& c : model_cases()) run_redeploy_oracle(c, 1);
}

TEST(ReplicaRedeploy, FloatReplicasMatchTheCloneOracleAtFourThreads) {
  for (const ModelCase& c : model_cases()) run_redeploy_oracle(c, 4);
}

TEST(ReplicaRedeploy, PristinePoolRefreshUndoesDamageInPlace) {
  // p_sa = 0: an empty map deploys the trained weights untouched, and a
  // refresh rewrites any damage landed directly in the float weights.
  const std::unique_ptr<Module> source = make_mlp({16, 24, 4}, 7);
  ReplicaPool pool(*source, ReplicaPoolConfig{});
  expect_matches_oracle(pool, 0, "construction");
  Rng rng(5);
  for (Param* p : crossbar_params(pool.replica(0))) {
    (void)apply_stuck_at_faults(p->value, StuckAtFaultModel(0.3), {}, rng);
  }
  (void)pool.refresh(0);
  expect_matches_oracle(pool, 0, "refresh after damage");
}

TEST(ReplicaRedeploy, PoolsBuiltFromOneSharedSourceKeepIt) {
  const std::shared_ptr<const Module> source = make_mlp({16, 24, 4}, 7);
  ReplicaPoolConfig cfg;
  cfg.p_sa = 0.05;
  ReplicaPool a(source, cfg);
  cfg.seed += 1;
  ReplicaPool b(source, cfg);
  EXPECT_EQ(&a.source(), source.get());
  EXPECT_EQ(&b.source(), source.get());
  EXPECT_EQ(source.use_count(), 3);
  a.repair(0);
  expect_matches_oracle(a, 0, "repair on a shared source");
}

TEST(ReplicaFleet, EveryDeviceSharesOnePristineSource) {
  fleet::FleetConfig cfg;
  cfg.num_devices = 8;
  cfg.ticks = 2;
  cfg.sample_shape = {16};
  cfg.probe_samples = 8;
  cfg.profile.quantized_fraction = 0.5;
  cfg.quantized.adc.bits = 0;
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    const std::unique_ptr<Module> model = make_mlp({16, 24, 4}, 7);
    fleet::FleetSimulator sim(*model, cfg);
    sim.run();
    const Module* shared = &sim.device(0).pool().source();
    EXPECT_NE(shared, model.get()) << "the fleet keeps its own pristine clone";
    for (int d = 0; d < sim.device_count(); ++d) {
      EXPECT_EQ(&sim.device(d).pool().source(), shared) << "device " << d;
      EXPECT_NE(&sim.device(d).pool().replica(0), shared) << "device " << d;
    }
  }
  set_num_threads(0);
}

}  // namespace
}  // namespace ftpim::serve
