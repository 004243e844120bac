// Model-level quantized deployment:
//   * QuantDeploy — hook install/uninstall lifecycle (dtor, clone-drop,
//     training-path bypass), Linear/Conv2d eval forwards routed through the
//     engines, and the model-cell-space defect map plumbing;
//   * QuantEval   — evaluate_under_defects on the kQuantized engine:
//     thread-count bit-identity and the zero-fault-rate accuracy criterion
//     (within 1% of the float path at >= 16 levels / 8-bit ADC);
//   * QuantServe  — ReplicaPool quantized lifecycle: clean replica weights,
//     deterministic per-replica maps, aging WITHOUT a re-clone, and repair.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/mlp.hpp"
#include "src/models/small_cnn.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pooling.hpp"
#include "src/nn/sequential.hpp"
#include "src/reram/qinfer/deploy.hpp"
#include "src/serve/replica_pool.hpp"
#include "src/tensor/im2col.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using qinfer::QuantizedEngineConfig;
using testing::random_tensor;

/// Scoped thread-count override; resets to the env/hardware default on exit.
struct ThreadOverride {
  explicit ThreadOverride(int n) { set_num_threads(n); }
  ~ThreadOverride() { set_num_threads(0); }
};

/// 8x8 4-class synthetic vision set (matches the integration-test scale).
std::unique_ptr<InMemoryDataset> tiny_data(std::int64_t samples, std::uint64_t stream) {
  SynthVisionConfig sv;
  sv.num_classes = 4;
  sv.image_size = 8;
  sv.samples = samples;
  sv.seed = 41;
  return make_synthvision(sv, stream);
}

/// Flatten + 2-layer MLP — the smallest image classifier the quantized
/// deployment can hook (Linear wants rank-2 input).
std::unique_ptr<Sequential> make_flat_mlp(std::uint64_t seed) {
  Rng rng(seed);
  auto net = std::make_unique<Sequential>();
  net->emplace<Flatten>();
  net->emplace<Linear>(3 * 8 * 8, 32, rng, /*with_bias=*/true);
  net->emplace<ReLU>();
  net->emplace<Linear>(32, 4, rng, /*with_bias=*/true);
  return net;
}

QuantizedEngineConfig deploy_config(int levels = 16, int adc_bits = 8) {
  QuantizedEngineConfig config;
  config.tile_rows = 64;
  config.tile_cols = 64;
  config.levels = levels;
  config.adc.bits = adc_bits;
  return config;
}

// ---------------------------------------------------------------------------
// QuantDeploy

TEST(QuantDeploy, LinearEvalForwardRoutesThroughEngine) {
  Rng rng(5);
  Sequential net;
  Linear& lin = net.emplace<Linear>(12, 7, rng, /*with_bias=*/true);
  const auto deployment = qinfer::deploy_quantized(net, deploy_config());
  ASSERT_EQ(deployment->layer_count(), 1u);
  ASSERT_NE(lin.mvm_hook(), nullptr);

  const Tensor x = random_tensor(Shape{3, 12}, 9);
  const Tensor got = net.forward(x, /*training=*/false);

  // Reference: engine mvm_batch + bias, exactly what the hooked path does.
  std::vector<float> want(3 * 7);
  deployment->engine(0).mvm_batch(x.data(), 3, want.data());
  const Tensor& bias = lin.bias().value;
  for (std::int64_t r = 0; r < 3; ++r) {
    for (std::int64_t o = 0; o < 7; ++o) {
      ASSERT_EQ(got[r * 7 + o], want[static_cast<std::size_t>(r * 7 + o)] + bias[o])
          << r << "," << o;
    }
  }
}

TEST(QuantDeploy, TrainingForwardBypassesHook) {
  auto net = make_mlp({12, 8, 4}, 3);
  const Tensor x = random_tensor(Shape{2, 12}, 11);
  const Tensor clean = net->forward(x, /*training=*/true);
  const auto deployment = qinfer::deploy_quantized(*net, deploy_config());
  const Tensor hooked_train = net->forward(x, /*training=*/true);
  const Tensor hooked_eval = net->forward(x, /*training=*/false);
  // Training ALWAYS uses the float weights (fault-aware training happens in
  // float space); only eval mode sees the quantized device.
  EXPECT_EQ(std::memcmp(clean.data(), hooked_train.data(),
                        static_cast<std::size_t>(clean.numel()) * sizeof(float)),
            0);
  bool differs = false;
  for (std::int64_t i = 0; i < clean.numel(); ++i) {
    if (clean[i] != hooked_eval[i]) differs = true;
  }
  EXPECT_TRUE(differs) << "eval forward should run the quantized datapath";
}

TEST(QuantDeploy, DtorUninstallsAndCloneDrops) {
  auto net = make_mlp({10, 6}, 7);
  const Tensor x = random_tensor(Shape{2, 10}, 13);
  const Tensor clean = net->forward(x, /*training=*/false);
  {
    const auto deployment = qinfer::deploy_quantized(*net, deploy_config());
    // A clone taken while hooked must NOT carry the hook (engines alias the
    // deployment, not the clone's weights).
    const auto copy = net->clone();
    const Tensor copy_out = copy->forward(x, /*training=*/false);
    EXPECT_EQ(std::memcmp(clean.data(), copy_out.data(),
                          static_cast<std::size_t>(clean.numel()) * sizeof(float)),
              0);
  }
  // Deployment destroyed -> float path restored bit-exactly.
  const Tensor after = net->forward(x, /*training=*/false);
  EXPECT_EQ(std::memcmp(clean.data(), after.data(),
                        static_cast<std::size_t>(clean.numel()) * sizeof(float)),
            0);
}

TEST(QuantDeploy, RedeployReplacesHookSafely) {
  auto net = make_mlp({10, 6}, 7);
  auto first = qinfer::deploy_quantized(*net, deploy_config(/*levels=*/16));
  auto second = qinfer::deploy_quantized(*net, deploy_config(/*levels=*/256));
  // Destroying the STALE deployment must not rip out the newer hook.
  first.reset();
  auto* lin = dynamic_cast<Linear*>(modules_of(*net)[1]);
  ASSERT_NE(lin, nullptr);
  EXPECT_NE(lin->mvm_hook(), nullptr);
  second.reset();
  EXPECT_EQ(lin->mvm_hook(), nullptr);
}

TEST(QuantDeploy, ConvEvalForwardMatchesManualLowering) {
  Rng rng(23);
  Sequential net;
  net.emplace<Conv2d>(2, 5, 3, 1, 1, rng, /*with_bias=*/false);
  const auto deployment = qinfer::deploy_quantized(net, deploy_config());
  ASSERT_EQ(deployment->layer_count(), 1u);

  const std::int64_t H = 6, W = 6;
  const Tensor x = random_tensor(Shape{2, 2, H, W}, 29);
  const Tensor got = net.forward(x, /*training=*/false);

  // Manual lowering: im2col -> transpose to [pixels, patch] -> engine GEMM
  // -> transpose back. Must agree EXACTLY with the hooked forward (same
  // integer datapath, same per-image batching).
  ConvGeometry g;
  g.in_c = 2;
  g.in_h = H;
  g.in_w = W;
  g.kernel_h = g.kernel_w = 3;
  g.pad_h = g.pad_w = 1;
  const std::int64_t patch = g.col_rows(), pixels = g.col_cols();
  std::vector<float> col(static_cast<std::size_t>(patch * pixels));
  std::vector<float> patches(static_cast<std::size_t>(pixels * patch));
  std::vector<float> yb(static_cast<std::size_t>(pixels * 5));
  for (std::int64_t img = 0; img < 2; ++img) {
    im2col(x.data() + img * 2 * H * W, g, col.data());
    for (std::int64_t p = 0; p < patch; ++p) {
      for (std::int64_t q = 0; q < pixels; ++q) {
        patches[static_cast<std::size_t>(q * patch + p)] =
            col[static_cast<std::size_t>(p * pixels + q)];
      }
    }
    deployment->engine(0).mvm_batch(patches.data(), pixels, yb.data());
    for (std::int64_t o = 0; o < 5; ++o) {
      for (std::int64_t q = 0; q < pixels; ++q) {
        ASSERT_EQ(got[(img * 5 + o) * pixels + q], yb[static_cast<std::size_t>(q * 5 + o)])
            << "img=" << img << " o=" << o << " q=" << q;
      }
    }
  }
}

TEST(QuantDeploy, ModelCellSpaceDefectMapSlicesPerLayer) {
  auto net = make_mlp({6, 4, 3}, 19);
  const auto deployment = qinfer::deploy_quantized(*net, deploy_config());
  ASSERT_EQ(deployment->layer_count(), 2u);
  const std::int64_t cells = deployment->cell_count();
  EXPECT_EQ(cells, crossbar_cell_count(*net));
  EXPECT_EQ(cells, 2 * (6 * 4 + 4 * 3));
  const Tensor clean0 = deployment->engine(0).read_back();
  const Tensor clean1 = deployment->engine(1).read_back();

  // One fault in each layer's range, in the fault_injector cell convention:
  // cell 0 = positive cell of layer-0 weight (0,0); layer1_cell = negative
  // cell of layer-1 weight (0,0).
  const std::int64_t layer1_cell = 2 * (6 * 4) + 1;
  deployment->apply_defect_map(DefectMap::from_faults(
      cells, {CellFault{0, FaultType::kStuckOn}, CellFault{layer1_cell, FaultType::kStuckOn}}));
  EXPECT_EQ(deployment->stuck_cells(), 2);
  EXPECT_EQ(deployment->engine(0).stuck_cells(), 1);
  EXPECT_EQ(deployment->engine(1).stuck_cells(), 1);

  // Stuck-on POSITIVE cell: lv+ pinned at L-1. For w >= 0 (lv- = 0) the
  // weight reads +w_max; for w < 0 it reads clean + w_max.
  const float w0 = dynamic_cast<Linear*>(modules_of(*net)[1])->weight().value[0];
  const float wmax0 = deployment->engine(0).w_max();
  const float want0 = w0 >= 0.0f ? wmax0 : clean0[0] + wmax0;
  EXPECT_NEAR(deployment->engine(0).read_back()[0], want0, 1e-5f);

  // Stuck-on NEGATIVE cell: lv- pinned at L-1. For w >= 0 the weight reads
  // clean - w_max; for w < 0 it reads -w_max.
  const float w1 = dynamic_cast<Linear*>(modules_of(*net)[3])->weight().value[0];
  const float wmax1 = deployment->engine(1).w_max();
  const float want1 = w1 >= 0.0f ? clean1[0] - wmax1 : -wmax1;
  EXPECT_NEAR(deployment->engine(1).read_back()[0], want1, 1e-5f);

  deployment->clear_defects();
  EXPECT_EQ(deployment->stuck_cells(), 0);
  EXPECT_TRUE(deployment->engine(0).read_back().allclose(clean0, 0.0f, 0.0f));
}

// ---------------------------------------------------------------------------
// QuantEval

TEST(QuantEval, AccuracyWithinOnePercentOfFloatAtZeroFaults) {
  // The acceptance criterion: >= 16 levels with an 8-bit ADC loses at most
  // 1% absolute accuracy against the float path at zero fault rate.
  const auto train = tiny_data(256, /*stream=*/1);
  const auto test = tiny_data(128, /*stream=*/2);
  auto net = make_flat_mlp(15);
  TrainConfig tc;
  tc.epochs = 4;
  tc.batch_size = 32;
  tc.sgd.lr = 0.05f;
  tc.augment.enabled = false;
  tc.seed = 7;
  Trainer(*net, *train, tc).run();
  const double float_acc = evaluate_accuracy(*net, *test);
  EXPECT_GT(float_acc, 0.5);  // learned something real (chance 0.25)

  DefectEvalConfig config;
  config.num_runs = 1;
  config.engine = EvalEngine::kQuantized;
  config.quantized = deploy_config(/*levels=*/16, /*adc_bits=*/8);
  const DefectEvalResult result = evaluate_under_defects(*net, *test, /*p_sa=*/0.0, config);
  EXPECT_NEAR(result.mean_acc, float_acc, 0.01 + 1e-12);
  EXPECT_EQ(result.mean_cell_fault_rate, 0.0);

  // Faults through the quantized datapath must hurt a trained model.
  config.num_runs = 3;
  const double hurt = evaluate_under_defects(*net, *test, /*p_sa=*/0.25, config).mean_acc;
  EXPECT_LT(hurt, float_acc);
}

TEST(QuantEval, BitIdenticalAcrossThreadCounts) {
  // Small CNN so the Conv2d hook path runs inside the Monte-Carlo workers.
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 4, .classes = 4});
  const auto data = tiny_data(48, /*stream=*/2);
  DefectEvalConfig config;
  config.num_runs = 4;
  config.seed = 55;
  config.batch_size = 16;
  config.engine = EvalEngine::kQuantized;
  config.quantized = deploy_config(/*levels=*/16, /*adc_bits=*/8);

  std::vector<double> base;
  {
    ThreadOverride threads(1);
    base = evaluate_under_defects(*net, *data, 0.05, config).run_accs;
  }
  ASSERT_EQ(base.size(), 4u);
  for (const int threads : {2, 3}) {
    ThreadOverride tg(threads);
    const DefectEvalResult result = evaluate_under_defects(*net, *data, 0.05, config);
    ASSERT_EQ(result.run_accs.size(), base.size());
    for (std::size_t r = 0; r < base.size(); ++r) {
      // Integer datapath + per-run seeds: EXACT equality, not a tolerance.
      EXPECT_EQ(result.run_accs[r], base[r]) << "threads=" << threads << " run=" << r;
    }
  }
}

// ---------------------------------------------------------------------------
// QuantServe

serve::ReplicaPoolConfig pool_config(int replicas, double p_sa) {
  serve::ReplicaPoolConfig config;
  config.num_replicas = replicas;
  config.p_sa = p_sa;
  config.seed = 21;
  config.engine = serve::ReplicaEngine::kQuantized;
  config.quantized = deploy_config();
  return config;
}

TEST(QuantServe, ReplicaWeightsStayCleanAndMapsAreDeterministic) {
  auto net = make_mlp({8, 6, 4}, 27);
  serve::ReplicaPool pool(*net, pool_config(/*replicas=*/2, /*p_sa=*/0.1));
  const std::vector<Param*> src = parameters_of(*net);
  for (int r = 0; r < pool.size(); ++r) {
    ASSERT_NE(pool.deployment(r), nullptr);
    EXPECT_EQ(pool.defect_map(r).fault_count(), pool.injection_stats(r).faulted_cells);
    // Level-domain deployment: the replica MODEL keeps clean float weights.
    std::vector<Param*> rep = parameters_of(pool.replica(r));
    ASSERT_EQ(src.size(), rep.size());
    for (std::size_t k = 0; k < src.size(); ++k) {
      EXPECT_TRUE(src[k]->value.allclose(rep[k]->value, 0.0f, 0.0f)) << src[k]->name;
    }
  }
  // Two pools with the same seed draw identical per-replica maps and produce
  // bit-identical eval outputs.
  serve::ReplicaPool twin(*net, pool_config(2, 0.1));
  const Tensor x = random_tensor(Shape{3, 8}, 31);
  for (int r = 0; r < pool.size(); ++r) {
    EXPECT_EQ(pool.defect_map(r).fault_count(), twin.defect_map(r).fault_count());
    const Tensor a = pool.replica(r).forward(x, /*training=*/false);
    const Tensor b = twin.replica(r).forward(x, /*training=*/false);
    EXPECT_EQ(
        std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)), 0)
        << "replica " << r;
  }
  // Distinct replicas see distinct dies.
  EXPECT_NE(pool.replica_seed(0), pool.replica_seed(1));
}

TEST(QuantServe, AgingLayersOntoEnginesWithoutReclone) {
  auto net = make_mlp({8, 6, 4}, 27);
  serve::ReplicaPool pool(*net, pool_config(/*replicas=*/1, /*p_sa=*/0.05));
  const Module* model_before = &pool.replica(0);
  const std::int64_t stuck_before = pool.deployment(0)->stuck_cells();

  AgingConfig ac;
  ac.p_new_per_interval = 0.05;
  const AgingModel aging(ac);
  const std::int64_t added = pool.advance_aging(0, aging, /*target_intervals=*/8);
  ASSERT_GT(added, 0);
  EXPECT_EQ(pool.aged_intervals(0), 8);
  // The level domain is non-destructive: no re-clone happened, the SAME
  // model object aged in place...
  EXPECT_EQ(&pool.replica(0), model_before);
  // ...and the engines now carry the grown map.
  EXPECT_GT(pool.deployment(0)->stuck_cells(), stuck_before);
  EXPECT_EQ(pool.injection_stats(0).faulted_cells, pool.defect_map(0).fault_count());

  // repair() swaps the die: fresh generation, fresh deployment, age reset.
  pool.repair(0);
  EXPECT_EQ(pool.generation(0), 1);
  ASSERT_NE(pool.deployment(0), nullptr);
  EXPECT_EQ(pool.aged_intervals(0), 0);
}

TEST(QuantServe, RepairGenerationsWalkTheDerivedSeedChain) {
  // Repeated repairs on the quantized path must follow the documented seed
  // schedule: generation 0 keeps the historical derive_seed(seed, r) stream,
  // generation g > 0 draws from derive_seed(derive_seed(seed, r), g) — so a
  // re-run of the fleet replays the exact same sequence of dies.
  auto net = make_mlp({8, 6, 4}, 27);
  const std::uint64_t base = 21;
  serve::ReplicaPool pool(*net, pool_config(/*replicas=*/2, /*p_sa=*/0.1));
  EXPECT_EQ(pool.replica_seed(1), derive_seed(base, 1));

  std::vector<std::int64_t> fault_history;
  for (int gen = 1; gen <= 3; ++gen) {
    pool.repair(1);
    EXPECT_EQ(pool.generation(1), gen);
    EXPECT_EQ(pool.replica_seed(1), derive_seed(derive_seed(base, 1), gen));
    fault_history.push_back(pool.defect_map(1).fault_count());
  }
  // Replica 0 never repaired: untouched generation and stream.
  EXPECT_EQ(pool.generation(0), 0);
  EXPECT_EQ(pool.replica_seed(0), derive_seed(base, 0));

  // A twin pool repaired the same number of times lands on the same die:
  // identical maps and bit-identical eval outputs at every generation.
  serve::ReplicaPool twin(*net, pool_config(2, 0.1));
  const Tensor x = random_tensor(Shape{3, 8}, 41);
  for (int gen = 1; gen <= 3; ++gen) {
    twin.repair(1);
    EXPECT_EQ(twin.defect_map(1).fault_count(), fault_history[static_cast<std::size_t>(gen - 1)]);
  }
  const Tensor a = pool.replica(1).forward(x, /*training=*/false);
  const Tensor b = twin.replica(1).forward(x, /*training=*/false);
  EXPECT_EQ(
      std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)), 0);
}

}  // namespace
}  // namespace ftpim
