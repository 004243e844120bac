// Layer-level unit tests: known-value forwards plus finite-difference
// gradient checks for every layer type (the backbone correctness evidence
// for the manual-backprop engine).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "src/common/check.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm2d.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/dropout.hpp"
#include "src/nn/linear.hpp"
#include "src/nn/pooling.hpp"
#include "src/nn/residual.hpp"
#include "src/nn/sequential.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using testing::check_input_gradient;
using testing::check_param_gradients;
using testing::random_tensor;

constexpr double kGradTol = 2e-2;  // float32 central differences

TEST(Linear, ForwardKnownValues) {
  Rng rng(1);
  Linear layer(2, 2, rng, /*with_bias=*/true);
  layer.weight().value = Tensor(Shape{2, 2}, std::vector<float>{1, 2, 3, 4});
  layer.bias().value = Tensor(Shape{2}, std::vector<float>{0.5f, -0.5f});
  const Tensor x(Shape{1, 2}, std::vector<float>{1, 1});
  const Tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y.at(0, 0), 3.5f);   // 1*1+2*1+0.5
  EXPECT_FLOAT_EQ(y.at(0, 1), 6.5f);   // 3*1+4*1-0.5
}

TEST(Linear, GradientsMatchNumeric) {
  Rng rng(2);
  Linear layer(5, 3, rng);
  const Tensor x = random_tensor(Shape{4, 5}, 3);
  EXPECT_LT(check_input_gradient(layer, x, 10), kGradTol);
  EXPECT_LT(check_param_gradients(layer, x, 11), kGradTol);
}

TEST(Linear, RejectsBadInput) {
  Rng rng(3);
  Linear layer(4, 2, rng);
  EXPECT_THROW(layer.forward(Tensor(Shape{2, 5}), false), std::invalid_argument);
  EXPECT_THROW(Linear(0, 2, rng), std::invalid_argument);
}

TEST(Linear, BackwardWithoutForwardThrows) {
  Rng rng(4);
  Linear layer(2, 2, rng);
  EXPECT_THROW(layer.backward(Tensor(Shape{1, 2})), std::logic_error);
}

// Every layer that caches state for backward, with a training input shape
// and a different eval input shape (batch and, where the layer allows it,
// spatial extent both change).
struct CachingLayer {
  const char* name;
  std::function<std::unique_ptr<Module>()> make;
  Shape train_shape;
  Shape eval_shape;
};

std::vector<CachingLayer> caching_layers() {
  const Shape act_train{2, 3, 4, 4};
  const Shape act_eval{3, 3, 5, 5};
  return {
      {"Linear", [] { Rng rng(60); return std::make_unique<Linear>(4, 3, rng); }, {2, 4}, {3, 4}},
      {"Conv2d",
       [] { Rng rng(61); return std::make_unique<Conv2d>(2, 3, 3, 1, 1, rng, /*with_bias=*/true); },
       {2, 2, 5, 5}, {3, 2, 6, 6}},
      {"BatchNorm2d", [] { return std::make_unique<BatchNorm2d>(3); }, act_train, act_eval},
      {"ReLU", [] { return std::make_unique<ReLU>(); }, act_train, act_eval},
      {"LeakyReLU", [] { return std::make_unique<LeakyReLU>(0.1f); }, act_train, act_eval},
      {"Tanh", [] { return std::make_unique<Tanh>(); }, act_train, act_eval},
      {"Dropout", [] { return std::make_unique<Dropout>(0.5f, 62); }, act_train, act_eval},
      {"MaxPool2d", [] { return std::make_unique<MaxPool2d>(2, 2); }, act_train, {3, 3, 6, 6}},
      {"GlobalAvgPool", [] { return std::make_unique<GlobalAvgPool>(); }, act_train, act_eval},
      {"Flatten", [] { return std::make_unique<Flatten>(); }, act_train, act_eval},
      {"ResidualBlock",
       [] { Rng rng(63); return std::make_unique<ResidualBlock>(2, 4, 2, rng); },
       {2, 2, 6, 6}, {3, 2, 8, 8}},
      {"IdentityResidualBlock",
       [] { Rng rng(68); return std::make_unique<ResidualBlock>(3, 3, 1, rng); },
       act_train, act_eval},
      // Grouped training units: BatchNorm2d -> ReLU -> Conv2d, and
      // BatchNorm2d -> ReLU ending in a non-conv child.
      {"Sequential(BN,ReLU,Conv)",
       [] {
         Rng rng(69);
         auto net = std::make_unique<Sequential>();
         net->emplace<BatchNorm2d>(3);
         net->emplace<ReLU>();
         net->emplace<Conv2d>(3, 2, 3, 1, 1, rng, /*with_bias=*/true);
         return net;
       },
       act_train, act_eval},
      {"Sequential(Conv,BN,ReLU,MaxPool)",
       [] {
         Rng rng(70);
         auto net = std::make_unique<Sequential>();
         net->emplace<Conv2d>(3, 4, 3, 1, 1, rng);
         net->emplace<BatchNorm2d>(4);
         net->emplace<ReLU>();
         net->emplace<MaxPool2d>(2, 2);
         return net;
       },
       act_train, {3, 3, 6, 6}},
  };
}

/// One training forward and its backward, optionally with an eval forward
/// on another shape in between. Returns grad-input then every param grad.
std::vector<float> backward_result(const CachingLayer& c, bool eval_forward_between) {
  const std::unique_ptr<Module> layer = c.make();
  const Tensor y = layer->forward(random_tensor(c.train_shape, 64), /*training=*/true);
  if (eval_forward_between) (void)layer->forward(random_tensor(c.eval_shape, 65), false);
  std::vector<float> out = layer->backward(random_tensor(y.shape(), 66)).vec();
  for (const Param* p : parameters_of(*layer)) {
    out.insert(out.end(), p->grad.vec().begin(), p->grad.vec().end());
  }
  return out;
}

TEST(Module, BackwardConsumesTheTrainingCache) {
  for (const CachingLayer& c : caching_layers()) {
    SCOPED_TRACE(c.name);
    const std::unique_ptr<Module> layer = c.make();
    EXPECT_THROW((void)layer->backward(random_tensor(c.train_shape, 67)), ContractViolation);
    const Tensor y = layer->forward(random_tensor(c.train_shape, 64), /*training=*/true);
    const Tensor g = random_tensor(y.shape(), 66);
    (void)layer->backward(g);
    // The cache was freed: a second backward has nothing to differentiate,
    // and no module of a container holds a cache either.
    for (Module* m : modules_of(*layer)) {
      SCOPED_TRACE(m->type_name());
      EXPECT_THROW((void)m->backward(g), ContractViolation);
    }
  }
}

TEST(Module, EvalForwardLeavesTheTrainingCacheAlone) {
  for (const CachingLayer& c : caching_layers()) {
    SCOPED_TRACE(c.name);
    const std::vector<float> plain = backward_result(c, false);
    const std::vector<float> interleaved = backward_result(c, true);
    ASSERT_EQ(plain.size(), interleaved.size());
    EXPECT_EQ(std::memcmp(plain.data(), interleaved.data(), plain.size() * sizeof(float)), 0);
  }
}

TEST(Conv2d, MatchesDirectConvolution) {
  Rng rng(5);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.weight().value.fill(1.0f);  // box filter
  Tensor x(Shape{1, 1, 3, 3}, 1.0f);
  const Tensor y = conv.forward(x, false);
  // Center sees all 9 ones; corners see 4; edges see 6.
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 1), 6.0f);
}

TEST(Conv2d, StrideTwoHalvesResolution) {
  Rng rng(6);
  Conv2d conv(2, 4, 3, 2, 1, rng);
  const Tensor x = random_tensor(Shape{2, 2, 8, 8}, 7);
  const Tensor y = conv.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{2, 4, 4, 4}));
}

TEST(Conv2d, GradientsMatchNumeric) {
  Rng rng(8);
  Conv2d conv(2, 3, 3, 1, 1, rng, /*with_bias=*/true);
  const Tensor x = random_tensor(Shape{2, 2, 4, 4}, 9);
  EXPECT_LT(check_input_gradient(conv, x, 12), kGradTol);
  EXPECT_LT(check_param_gradients(conv, x, 13), kGradTol);
}

TEST(Conv2d, StridedGradientsMatchNumeric) {
  Rng rng(14);
  Conv2d conv(2, 2, 3, 2, 1, rng);
  const Tensor x = random_tensor(Shape{1, 2, 6, 6}, 15);
  EXPECT_LT(check_input_gradient(conv, x, 16), kGradTol);
  EXPECT_LT(check_param_gradients(conv, x, 17), kGradTol);
}

TEST(BatchNorm2d, NormalizesBatchStatistics) {
  BatchNorm2d bn(3);
  const Tensor x = random_tensor(Shape{8, 3, 4, 4}, 18, 3.0f);
  const Tensor y = bn.forward(x, true);
  // Per channel: mean ~0, var ~1.
  const std::int64_t plane = 16;
  for (std::int64_t c = 0; c < 3; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::int64_t n = 0; n < 8; ++n) {
      for (std::int64_t p = 0; p < plane; ++p) {
        const float v = y.data()[(n * 3 + c) * plane + p];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    const double count = 8.0 * plane;
    EXPECT_NEAR(sum / count, 0.0, 1e-4);
    EXPECT_NEAR(sq / count, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(2);
  // Train on a few batches to populate running stats.
  for (int i = 0; i < 20; ++i) {
    (void)bn.forward(random_tensor(Shape{4, 2, 3, 3}, 100 + i, 2.0f), true);
  }
  // Eval output on a constant input must use running (not batch) stats: a
  // constant batch has zero variance, which would explode without them.
  const Tensor x(Shape{2, 2, 3, 3}, 1.5f);
  const Tensor y = bn.forward(x, false);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    EXPECT_TRUE(std::isfinite(y[i]));
    EXPECT_LT(std::fabs(y[i]), 10.0f);
  }
}

TEST(BatchNorm2d, GradientsMatchNumeric) {
  BatchNorm2d bn(2);
  const Tensor x = random_tensor(Shape{3, 2, 2, 2}, 19);
  EXPECT_LT(check_input_gradient(bn, x, 20), kGradTol);
  EXPECT_LT(check_param_gradients(bn, x, 21), kGradTol);
}

TEST(ReLU, ForwardAndGradient) {
  ReLU relu;
  const Tensor x = Tensor::from_vector({-1.0f, 0.0f, 2.0f});
  const Tensor y = relu.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[1], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  const Tensor g = relu.backward(Tensor::from_vector({5.0f, 5.0f, 5.0f}));
  EXPECT_FLOAT_EQ(g[0], 0.0f);
  EXPECT_FLOAT_EQ(g[1], 0.0f);
  EXPECT_FLOAT_EQ(g[2], 5.0f);
  // The mask multiplies rather than selects: a negative gradient through a
  // closed unit gives -0.0 and a NaN stays NaN.
  (void)relu.forward(x, true);
  const Tensor h = relu.backward(Tensor::from_vector({-5.0f, NAN, 5.0f}));
  EXPECT_TRUE(h[0] == 0.0f && std::signbit(h[0]));
  EXPECT_TRUE(std::isnan(h[1]));
}

TEST(LeakyReLU, GradientMatchesNumeric) {
  LeakyReLU leaky(0.1f);
  const Tensor x = random_tensor(Shape{40}, 22);
  EXPECT_LT(check_input_gradient(leaky, x, 23), kGradTol);
}

TEST(Tanh, GradientMatchesNumeric) {
  Tanh tanh_layer;
  const Tensor x = random_tensor(Shape{40}, 24, 0.5f);
  EXPECT_LT(check_input_gradient(tanh_layer, x, 25), kGradTol);
}

TEST(GlobalAvgPool, ForwardAndGradient) {
  GlobalAvgPool pool;
  Tensor x(Shape{1, 2, 2, 2});
  for (std::int64_t i = 0; i < 8; ++i) x[i] = static_cast<float>(i);
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y.at(0, 0), 1.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 5.5f);
  EXPECT_LT(check_input_gradient(pool, x, 26), kGradTol);
}

TEST(MaxPool2d, ForwardSelectsMaxima) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 7, 3, 2});
  const Tensor y = pool.forward(x, false);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 7.0f);
}

TEST(MaxPool2d, GradientRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, std::vector<float>{1, 7, 3, 2});
  (void)pool.forward(x, true);
  const Tensor g = pool.backward(Tensor(Shape{1, 1, 1, 1}, std::vector<float>{4.0f}));
  EXPECT_FLOAT_EQ(g[1], 4.0f);
  EXPECT_FLOAT_EQ(g[0] + g[2] + g[3], 0.0f);
}

TEST(MaxPool2d, GradientTiesKeepTheFirstTapAndSkipNaN) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // 3x3 windows at stride 2 over a 1x1x5x5 input give 2x2 outputs; each
  // window's taps are listed row-major.
  MaxPool2d pool(3, 2);
  Tensor x(Shape{1, 1, 5, 5}, -1.0f);
  x.at(0, 0, 0, 1) = 4.0f;  // window (0,0): tie at taps 1 and 5 -> tap 1
  x.at(0, 0, 1, 2) = 4.0f;
  x.at(0, 0, 0, 3) = nan;   // window (0,1): a NaN before the max is skipped
  x.at(0, 0, 1, 4) = 2.0f;
  x.at(0, 0, 2, 0) = nan;   // window (1,0): every tap NaN or -inf -> tap 0
  for (std::int64_t y = 2; y < 5; ++y) {
    for (std::int64_t xx = 0; xx < 3; ++xx) {
      if (y != 2 || xx != 0) x.at(0, 0, y, xx) = xx == 2 ? nan : -inf;
    }
  }
  x.at(0, 0, 4, 4) = 3.0f;  // window (1,1): its last tap; (2,2) is NaN
  const Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.at(0, 0, 0, 0), 4.0f);
  EXPECT_EQ(y.at(0, 0, 0, 1), 4.0f);  // (0,2)..(2,4) also holds the 4 at (1,2)
  EXPECT_EQ(y.at(0, 0, 1, 1), 3.0f);
  const Tensor g = pool.backward(Tensor(Shape{1, 1, 2, 2}, std::vector<float>{1, 2, 4, 8}));
  Tensor expected(Shape{1, 1, 5, 5});
  expected.at(0, 0, 0, 1) = 1.0f;
  expected.at(0, 0, 1, 2) = 2.0f;  // window (0,1)'s first 4 is its tap 3
  expected.at(0, 0, 2, 0) = 4.0f;  // window (1,0)'s tap 0
  expected.at(0, 0, 4, 4) = 8.0f;
  EXPECT_EQ(g.vec(), expected.vec());
}

TEST(Flatten, RoundTripsShape) {
  Flatten flat;
  const Tensor x = random_tensor(Shape{2, 3, 4, 4}, 27);
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  const Tensor g = flat.backward(y);
  EXPECT_EQ(g.shape(), x.shape());
}

TEST(Sequential, ComposesAndCollectsParams) {
  Rng rng(28);
  Sequential net;
  net.emplace<Linear>(4, 8, rng);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 2, rng);
  const Tensor x = random_tensor(Shape{3, 4}, 29);
  EXPECT_EQ(net.forward(x, false).shape(), (Shape{3, 2}));
  const auto params = parameters_of(net);
  ASSERT_EQ(params.size(), 4u);  // two weights, two biases
  EXPECT_EQ(params[0]->name, "0.weight");
  EXPECT_EQ(params[2]->name, "2.weight");
}

TEST(Sequential, GradientsThroughStack) {
  Rng rng(30);
  Sequential net;
  net.emplace<Linear>(4, 6, rng);
  net.emplace<Tanh>();
  net.emplace<Linear>(6, 3, rng);
  const Tensor x = random_tensor(Shape{2, 4}, 31, 0.5f);
  EXPECT_LT(check_input_gradient(net, x, 32), kGradTol);
  EXPECT_LT(check_param_gradients(net, x, 33), kGradTol);
}

TEST(ResidualBlock, IdentityShortcutShapes) {
  Rng rng(34);
  ResidualBlock block(4, 4, 1, rng);
  const Tensor x = random_tensor(Shape{2, 4, 6, 6}, 35);
  EXPECT_EQ(block.forward(x, false).shape(), x.shape());
}

TEST(ResidualBlock, DownsampleShortcutShapes) {
  Rng rng(36);
  ResidualBlock block(4, 8, 2, rng);
  const Tensor x = random_tensor(Shape{2, 4, 6, 6}, 37);
  EXPECT_EQ(block.forward(x, false).shape(), (Shape{2, 8, 3, 3}));
}

TEST(ResidualBlock, RejectsChannelChangeWithoutStride) {
  Rng rng(38);
  EXPECT_THROW(ResidualBlock(4, 8, 1, rng), std::invalid_argument);
  EXPECT_THROW(ResidualBlock(4, 8, 3, rng), std::invalid_argument);
}

TEST(ResidualBlock, GradientsMatchNumeric) {
  Rng rng(39);
  ResidualBlock block(2, 2, 1, rng);
  const Tensor x = random_tensor(Shape{2, 2, 4, 4}, 40);
  // Smaller eps than the default: the block has two ReLUs and eps=1e-2
  // central differences cross activation kinks on this input.
  EXPECT_LT(check_input_gradient(block, x, 41, 3e-3f), kGradTol);
  EXPECT_LT(check_param_gradients(block, x, 42, 3e-3f), kGradTol);
}

TEST(ResidualBlock, DownsampleGradientsMatchNumeric) {
  Rng rng(43);
  ResidualBlock block(2, 4, 2, rng);
  const Tensor x = random_tensor(Shape{1, 2, 4, 4}, 44);
  EXPECT_LT(check_input_gradient(block, x, 45), kGradTol);
  EXPECT_LT(check_param_gradients(block, x, 46), kGradTol);
}

TEST(Module, StateDictRoundTrip) {
  Rng rng(47);
  Sequential net;
  net.emplace<Conv2d>(2, 3, 3, 1, 1, rng);
  net.emplace<BatchNorm2d>(3);
  net.emplace<ReLU>();
  (void)net.forward(random_tensor(Shape{2, 2, 4, 4}, 48), true);  // touch BN stats

  const StateDict state = state_dict_of(net);
  EXPECT_TRUE(state.count("0.weight"));
  EXPECT_TRUE(state.count("1.gamma"));
  EXPECT_TRUE(state.count("1.running_mean"));

  Rng rng2(999);
  Sequential other;
  other.emplace<Conv2d>(2, 3, 3, 1, 1, rng2);
  other.emplace<BatchNorm2d>(3);
  other.emplace<ReLU>();
  load_state_dict_into(other, state);
  const Tensor x = random_tensor(Shape{1, 2, 4, 4}, 49);
  EXPECT_TRUE(other.forward(x, false).allclose(net.forward(x, false)));
}

TEST(Module, LoadStateDictValidates) {
  Rng rng(50);
  Sequential net;
  net.emplace<Linear>(2, 2, rng);
  StateDict missing;
  EXPECT_THROW(load_state_dict_into(net, missing), std::runtime_error);
  StateDict wrong_shape;
  wrong_shape.emplace("0.weight", Tensor(Shape{3, 3}));
  wrong_shape.emplace("0.bias", Tensor(Shape{2}));
  EXPECT_THROW(load_state_dict_into(net, wrong_shape), std::runtime_error);
}

TEST(Module, ParameterCountAndZeroGrads) {
  Rng rng(51);
  Sequential net;
  net.emplace<Linear>(3, 4, rng);  // 12 + 4
  net.emplace<Linear>(4, 2, rng);  // 8 + 2
  EXPECT_EQ(parameter_count(net), 26);
  const Tensor x = random_tensor(Shape{2, 3}, 52);
  (void)net.forward(x, true);
  (void)net.backward(random_tensor(Shape{2, 2}, 53));
  zero_grads(net);
  for (const Param* p : parameters_of(net)) {
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) EXPECT_EQ(p->grad[i], 0.0f);
  }
}

}  // namespace
}  // namespace ftpim
