#include <gtest/gtest.h>

#include "src/models/mlp.hpp"
#include "src/models/resnet.hpp"
#include "src/models/small_cnn.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

TEST(ResNet, DepthValidation) {
  EXPECT_THROW(make_resnet(ResNetConfig{.depth = 18}), std::invalid_argument);
  EXPECT_THROW(make_resnet(ResNetConfig{.depth = 7}), std::invalid_argument);
  EXPECT_THROW(make_resnet(ResNetConfig{.depth = 20, .classes = 1}), std::invalid_argument);
  EXPECT_NO_THROW(make_resnet(ResNetConfig{.depth = 8, .base_width = 2}));
}

TEST(ResNet, ForwardShape) {
  auto net = make_resnet20(10, /*base_width=*/4, /*seed=*/1);
  const Tensor x = testing::random_tensor(Shape{2, 3, 16, 16}, 2);
  EXPECT_EQ(net->forward(x, false).shape(), (Shape{2, 10}));
}

TEST(ResNet, WorksAt32px) {
  auto net = make_resnet20(10, 4, 1);
  const Tensor x = testing::random_tensor(Shape{1, 3, 32, 32}, 3);
  EXPECT_EQ(net->forward(x, false).shape(), (Shape{1, 10}));
}

TEST(ResNet, Resnet20HasNineBlocks) {
  auto net = make_resnet20(10, 16, 1);
  // conv+bn+relu + 9 blocks + pool + linear = 14 children.
  EXPECT_EQ(net->size(), 14u);
}

TEST(ResNet, Resnet32HasFifteenBlocks) {
  auto net = make_resnet32(100, 16, 1);
  EXPECT_EQ(net->size(), 20u);
  const Tensor x = testing::random_tensor(Shape{1, 3, 16, 16}, 4);
  EXPECT_EQ(net->forward(x, false).shape(), (Shape{1, 100}));
}

TEST(ResNet, PaperParamCountAtFullWidth) {
  // ResNet-20 width 16 on 10 classes is famously ~0.27M params.
  auto net = make_resnet20(10, 16, 1);
  const std::int64_t n = parameter_count(*net);
  EXPECT_GT(n, 260000);
  EXPECT_LT(n, 280000);
}

TEST(ResNet, TrainBackwardRuns) {
  auto net = make_resnet(ResNetConfig{.depth = 8, .classes = 4, .base_width = 2, .seed = 5});
  const Tensor x = testing::random_tensor(Shape{2, 3, 8, 8}, 6);
  const Tensor y = net->forward(x, true);
  const Tensor g = net->backward(testing::random_tensor(y.shape(), 7));
  EXPECT_EQ(g.shape(), x.shape());
  for (const Param* p : parameters_of(*net)) {
    // The first backward allocates every gradient, shaped like its value.
    EXPECT_EQ(p->grad.shape(), p->value.shape()) << p->name;
    // Every crossbar weight must receive some gradient signal.
    if (p->kind != ParamKind::kCrossbarWeight) continue;
    double norm = 0.0;
    for (std::int64_t i = 0; i < p->grad.numel(); ++i) {
      norm += std::fabs(p->grad[i]);
    }
    EXPECT_GT(norm, 0.0) << p->name;
  }
}

TEST(ResNet, DeterministicForSeed) {
  auto a = make_resnet20(10, 4, 77);
  auto b = make_resnet20(10, 4, 77);
  const Tensor x = testing::random_tensor(Shape{1, 3, 8, 8}, 8);
  EXPECT_TRUE(a->forward(x, false).allclose(b->forward(x, false)));
}

TEST(Mlp, ShapeAndDepth) {
  auto net = make_mlp({8, 16, 16, 3}, 1);
  const Tensor x = testing::random_tensor(Shape{5, 8}, 9);
  EXPECT_EQ(net->forward(x, false).shape(), (Shape{5, 3}));
  EXPECT_EQ(net->size(), 5u);  // L R L R L
  EXPECT_THROW(make_mlp({4}, 1), std::invalid_argument);
}

TEST(SmallCnn, ShapeAndValidation) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 4, .classes = 7});
  const Tensor x = testing::random_tensor(Shape{2, 3, 16, 16}, 10);
  EXPECT_EQ(net->forward(x, false).shape(), (Shape{2, 7}));
  EXPECT_THROW(make_small_cnn(SmallCnnConfig{.image_size = 10}), std::invalid_argument);
}

TEST(Models, CrossbarWeightTagging) {
  // Conv/linear kernels are crossbar weights; BN params and biases are not —
  // the fault injector and pruners key off this.
  auto net = make_resnet20(10, 4, 1);
  int crossbar = 0, norm = 0, bias = 0;
  for (const Param* p : parameters_of(*net)) {
    switch (p->kind) {
      case ParamKind::kCrossbarWeight: ++crossbar; break;
      case ParamKind::kNorm: ++norm; break;
      case ParamKind::kBias: ++bias; break;
    }
  }
  EXPECT_EQ(crossbar, 20);  // 19 convs + 1 linear
  EXPECT_EQ(norm, 2 * 19);  // gamma+beta per BN
  EXPECT_EQ(bias, 1);       // classifier bias
}

}  // namespace
}  // namespace ftpim
