#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "src/models/mlp.hpp"
#include "src/reram/fault_injector.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using testing::random_tensor;

TEST(Redundancy, Validation) {
  Tensor w = random_tensor(Shape{8}, 1);
  Rng rng(2);
  EXPECT_THROW(
      apply_faults_with_redundancy(w, StuckAtFaultModel(0.1), RedundancyConfig{.replicas = 2}, rng),
      std::invalid_argument);
  EXPECT_THROW(
      apply_faults_with_redundancy(w, StuckAtFaultModel(0.1), RedundancyConfig{.replicas = 0}, rng),
      std::invalid_argument);
}

TEST(Redundancy, ZeroRateIsIdentity) {
  Tensor w = random_tensor(Shape{500}, 3);
  const Tensor original = w;
  Rng rng(4);
  const auto stats =
      apply_faults_with_redundancy(w, StuckAtFaultModel(0.0), RedundancyConfig{.replicas = 3}, rng);
  EXPECT_TRUE(w.allclose(original, 0.0f, 0.0f));
  EXPECT_EQ(stats.faulted_cells, 0);
  EXPECT_EQ(stats.cells, 3000);
}

TEST(Redundancy, SingleReplicaMatchesPlainInjectorBitExact) {
  // R=1 redundancy IS the plain analog injector: one pair per weight, the
  // same RNG stream and the same cell-pair readout, so the weights, the
  // stats and the generator state after the call are identical.
  const Tensor base = random_tensor(Shape{20000}, 5, 0.3f);
  const double p = 0.05;

  Tensor w_red = base;
  Rng rng1(6);
  const InjectionStats red = apply_faults_with_redundancy(w_red, StuckAtFaultModel(p),
                                                          RedundancyConfig{.replicas = 1}, rng1);

  Tensor w_plain = base;
  Rng rng2(6);
  const InjectionStats plain = apply_stuck_at_faults(w_plain, StuckAtFaultModel(p), {}, rng2);

  ASSERT_GT(plain.affected_weights, 0);
  EXPECT_EQ(std::memcmp(w_red.data(), w_plain.data(), sizeof(float) * base.numel()), 0);
  EXPECT_EQ(red.cells, plain.cells);
  EXPECT_EQ(red.faulted_cells, plain.faulted_cells);
  EXPECT_EQ(red.affected_weights, plain.affected_weights);
  EXPECT_EQ(rng1(), rng2());
}

TEST(Redundancy, TmrMasksMostSingleFaults) {
  // At fault rates where at most one replica of a weight typically faults,
  // the median readback must be far less distorted than R=1.
  const Tensor base = random_tensor(Shape{20000}, 8, 0.3f);
  const double p = 0.02;
  double mads[2] = {0.0, 0.0};
  const int replicas[2] = {1, 3};
  for (int k = 0; k < 2; ++k) {
    Tensor w = base;
    Rng rng(derive_seed(9, static_cast<std::uint64_t>(k)));
    apply_faults_with_redundancy(w, StuckAtFaultModel(p),
                                 RedundancyConfig{.replicas = replicas[k]}, rng);
    for (std::int64_t i = 0; i < base.numel(); ++i) mads[k] += std::fabs(w[i] - base[i]);
  }
  EXPECT_LT(mads[1], 0.3 * mads[0]);  // TMR removes the large majority of damage
}

TEST(Redundancy, MedianKeepsWeightsWithinFullScale) {
  Tensor w = random_tensor(Shape{5000}, 10);
  const float wmax = w.abs_max();
  Rng rng(11);
  apply_faults_with_redundancy(w, StuckAtFaultModel(0.5), RedundancyConfig{.replicas = 5}, rng);
  for (std::int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::fabs(w[i]), wmax * (1.0f + 1e-5f));
  }
}

TEST(Redundancy, ModelInjectorSkipsNonCrossbarParams) {
  auto net = make_mlp({6, 10, 3}, 14);
  std::vector<Tensor> biases;
  for (const Param* p : parameters_of(*net)) {
    if (p->kind == ParamKind::kBias) biases.push_back(p->value);
  }
  Rng rng(15);
  for (Param* p : crossbar_params(*net)) {
    apply_faults_with_redundancy(p->value, StuckAtFaultModel(0.5), RedundancyConfig{.replicas = 3},
                                 rng);
  }
  std::size_t b = 0;
  for (const Param* p : parameters_of(*net)) {
    if (p->kind == ParamKind::kBias) {
      EXPECT_TRUE(p->value.allclose(biases[b++], 0.0f, 0.0f));
    }
  }
}

class RedundancyLevelTest : public ::testing::TestWithParam<int> {};

TEST_P(RedundancyLevelTest, MoreReplicasNeverHurt) {
  const Tensor base = random_tensor(Shape{30000}, 16, 0.3f);
  const double p = 0.05;
  Tensor w1 = base, wr = base;
  Rng rng1(17), rng2(18);
  apply_faults_with_redundancy(w1, StuckAtFaultModel(p), RedundancyConfig{.replicas = 1}, rng1);
  apply_faults_with_redundancy(wr, StuckAtFaultModel(p),
                               RedundancyConfig{.replicas = GetParam()}, rng2);
  double mad1 = 0.0, madr = 0.0;
  for (std::int64_t i = 0; i < base.numel(); ++i) {
    mad1 += std::fabs(w1[i] - base[i]);
    madr += std::fabs(wr[i] - base[i]);
  }
  EXPECT_LT(madr, mad1 * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Replicas, RedundancyLevelTest, ::testing::Values(3, 5, 7));

}  // namespace
}  // namespace ftpim
