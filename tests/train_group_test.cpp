// Training-side grouping: Sequential runs BatchNorm2d -> ReLU (-> Conv2d) as
// one unit that caches only BN's normalized input, and ResidualBlock rebuilds
// its sum mask from caches its children already hold.
//   * TrainGroup.*MatchesChildByChild — outputs, input gradients, every
//     parameter gradient and the BN running statistics are memcmp-equal to a
//     training pass that runs every leaf module on its own (ResidualBlocks
//     unrolled by hand), at 1 and 4 workers and every runnable kernel level;
//   * TrainGroup.GroupedChildrenHoldNoCache — after a grouped training
//     forward the ReLU and the Conv2d of a unit hold nothing (that no module
//     holds anything after backward is Module.BackwardConsumesTheTrainingCache).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/models/resnet.hpp"
#include "src/models/small_cnn.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm2d.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/pooling.hpp"
#include "src/nn/residual.hpp"
#include "src/nn/sequential.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using kernels::KernelLevel;
using testing::random_tensor;

struct Pinned {
  Pinned(int workers, KernelLevel level) {
    set_num_threads(workers);
    kernels::set_kernel_level(level);
  }
  ~Pinned() {
    set_num_threads(0);
    kernels::clear_kernel_level_override();
  }
};

std::vector<KernelLevel> runnable_levels() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(KernelLevel::kAvx2);
  return levels;
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), static_cast<std::size_t>(a.numel()) * sizeof(float)) ==
             0;
}

/// What the hand-unrolled ResidualBlock needs between forward and backward.
struct BlockTape {
  Tensor input;
  std::vector<float> sum_mask;
};

/// Option-A shortcut of x to `out_shape`: stride subsample, zero-padded
/// channels (identity when the shapes match).
Tensor shortcut_of(const Tensor& x, const Shape& out_shape) {
  Tensor s(out_shape);
  const std::int64_t stride = x.dim(2) / out_shape[2];
  for (std::int64_t i = 0; i < x.dim(0); ++i) {
    for (std::int64_t c = 0; c < x.dim(1); ++c) {
      for (std::int64_t y = 0; y < out_shape[2]; ++y) {
        for (std::int64_t xx = 0; xx < out_shape[3]; ++xx) {
          s.at(i, c, y, xx) = x.at(i, c, y * stride, xx * stride);
        }
      }
    }
  }
  return s;
}

/// Training forward that runs every leaf module on its own.
Tensor forward_leaves(Module& m, const Tensor& x, std::vector<BlockTape>& tape) {
  if (auto* seq = dynamic_cast<Sequential*>(&m)) {
    Tensor y = x;
    for (std::size_t i = 0; i < seq->size(); ++i) y = forward_leaves(seq->child(i), y, tape);
    return y;
  }
  if (dynamic_cast<ResidualBlock*>(&m) != nullptr) {
    const std::size_t slot = tape.size();
    tape.push_back({x, {}});
    Tensor y = forward_leaves(*modules_of(m)[1], x, tape);  // [block, main, ...]
    const Tensor s = shortcut_of(x, y.shape());
    std::vector<float>& mask = tape[slot].sum_mask;
    for (std::int64_t i = 0; i < y.numel(); ++i) {
      const float sum = y[i] + s[i];
      y[i] = sum > 0.0f ? sum : 0.0f;
      mask.push_back(sum > 0.0f ? 1.0f : 0.0f);
    }
    return y;
  }
  return m.forward(x, /*training=*/true);
}

/// Backward of forward_leaves, every leaf on its own, in reverse.
Tensor backward_leaves(Module& m, const Tensor& g, std::vector<BlockTape>& tape) {
  if (auto* seq = dynamic_cast<Sequential*>(&m)) {
    Tensor d = g;
    for (std::size_t i = seq->size(); i-- > 0;) d = backward_leaves(seq->child(i), d, tape);
    return d;
  }
  if (dynamic_cast<ResidualBlock*>(&m) != nullptr) {
    const BlockTape t = std::move(tape.back());  // a block's main path holds no block
    tape.pop_back();
    Tensor gs = g;
    for (std::int64_t i = 0; i < gs.numel(); ++i) {
      gs[i] *= t.sum_mask[static_cast<std::size_t>(i)];
    }
    Tensor d = backward_leaves(*modules_of(m)[1], gs, tape);
    Tensor short_grad(t.input.shape());
    const std::int64_t stride = t.input.dim(2) / gs.dim(2);
    for (std::int64_t i = 0; i < gs.dim(0); ++i) {
      for (std::int64_t c = 0; c < t.input.dim(1); ++c) {
        for (std::int64_t y = 0; y < gs.dim(2); ++y) {
          for (std::int64_t xx = 0; xx < gs.dim(3); ++xx) {
            short_grad.at(i, c, y * stride, xx * stride) = gs.at(i, c, y, xx);
          }
        }
      }
    }
    for (std::int64_t i = 0; i < d.numel(); ++i) d[i] += short_grad[i];
    return d;
  }
  return m.backward(g);
}

/// Moves every BatchNorm2d off its identity initialization, with some
/// negative scales, so a ReLU after it passes and blocks a real mix.
void randomize_norms(Module& net, std::uint64_t seed) {
  Rng rng(seed);
  for (Param* p : parameters_of(net)) {
    if (p->kind != ParamKind::kNorm) continue;
    for (std::int64_t i = 0; i < p->value.numel(); ++i) p->value[i] = rng.normal(0.3f, 0.7f);
  }
}

/// One grouped training step and one leaf-by-leaf step on a clone, compared
/// bit for bit at every (workers, level).
void expect_grouped_exact(Module& net, const Shape& input_shape) {
  const Tensor x = random_tensor(input_shape, 700);
  for (const int workers : {1, 4}) {
    for (const KernelLevel level : runnable_levels()) {
      SCOPED_TRACE(::testing::Message() << workers << " workers, level "
                                        << kernels::kernel_level_name(level));
      const Pinned pin(workers, level);
      const std::unique_ptr<Module> grouped = net.clone();
      const std::unique_ptr<Module> leaves = net.clone();
      const Tensor y = grouped->forward(x, /*training=*/true);
      std::vector<BlockTape> tape;
      const Tensor y_ref = forward_leaves(*leaves, x, tape);
      ASSERT_TRUE(bitwise_equal(y, y_ref));
      const Tensor probe = random_tensor(y.shape(), 701);
      EXPECT_TRUE(bitwise_equal(grouped->backward(probe), backward_leaves(*leaves, probe, tape)));
      EXPECT_TRUE(tape.empty());
      const std::vector<Param*> pg = parameters_of(*grouped);
      const std::vector<Param*> pl = parameters_of(*leaves);
      ASSERT_EQ(pg.size(), pl.size());
      for (std::size_t i = 0; i < pg.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(pg[i]->grad, pl[i]->grad)) << pg[i]->name;
      }
      const StateDict sg = state_dict_of(*grouped);
      const StateDict sl = state_dict_of(*leaves);
      for (const auto& [name, t] : sg) EXPECT_TRUE(bitwise_equal(t, sl.at(name))) << name;
    }
  }
}

TEST(TrainGroup, ResNet20MatchesChildByChild) {
  auto net = make_resnet20(10, /*base_width=*/8, /*seed=*/3);
  randomize_norms(*net, 1);
  expect_grouped_exact(*net, Shape{6, 3, 12, 12});
}

TEST(TrainGroup, SmallCnnMatchesChildByChild) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 8, .width = 4, .classes = 5});
  randomize_norms(*net, 2);
  expect_grouped_exact(*net, Shape{5, 3, 8, 8});
}

TEST(TrainGroup, BiasedConvUnitsAndTrailingReluMatchChildByChild) {
  Rng rng(3);
  Sequential net;
  net.emplace<BatchNorm2d>(3);  // a unit that reads the caller's tensor
  net.emplace<ReLU>();
  net.emplace<Conv2d>(3, 6, 3, 1, 1, rng, /*with_bias=*/true);
  net.emplace<BatchNorm2d>(6);  // BN -> ReLU with no conv after it
  net.emplace<ReLU>();
  net.emplace<BatchNorm2d>(6);
  net.emplace<ReLU>();
  net.emplace<Conv2d>(6, 4, 3, 2, 1, rng, /*with_bias=*/true);
  net.emplace<BatchNorm2d>(4);
  net.emplace<LeakyReLU>(0.1f);  // not a unit
  net.emplace<BatchNorm2d>(4);
  net.emplace<ReLU>();  // a unit that ends the Sequential
  randomize_norms(net, 3);
  expect_grouped_exact(net, Shape{4, 3, 7, 7});
}

TEST(TrainGroup, GroupedChildrenHoldNoCache) {
  Rng rng(4);
  ResidualBlock block(4, 4, 1, rng);
  const Tensor x = random_tensor(Shape{2, 4, 5, 5}, 702);
  const Tensor y = block.forward(x, /*training=*/true);
  // [block, main, conv_a, bn_a, relu, conv_b, bn_b]: the unit's ReLU and
  // conv_b hold nothing, so their own backward has nothing to differentiate.
  const std::vector<Module*> mods = modules_of(block);
  ASSERT_EQ(mods.size(), 7u);
  EXPECT_THROW((void)mods[4]->backward(y), ContractViolation);
  EXPECT_THROW((void)mods[5]->backward(y), ContractViolation);
  // Probing them left the unit intact: the block's own backward still runs.
  EXPECT_NO_THROW((void)block.backward(random_tensor(y.shape(), 703)));
}

}  // namespace
}  // namespace ftpim
