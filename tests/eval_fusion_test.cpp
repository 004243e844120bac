// Eval-forward fusion and the branch-free elementwise layers:
//   * EvalFusion — Sequential's fused Conv2d -> BatchNorm2d (-> ReLU) eval
//     blocks give logits memcmp-equal to running every child on its own
//     (ResidualBlocks unrolled by hand), for SmallCNN, ResNet-20, a conv stack
//     with biases, and a quantized-deployed SmallCNN (the hooked path), at
//     several batch sizes, 1 and 4 workers, and every runnable kernel level;
//   * BranchFreeSelect — ReLU, LeakyReLU, MaxPool2d and the residual
//     add+ReLU return the exact bits of the ternaries they replaced on NaN,
//     +-0, +-inf and denormal inputs.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <vector>

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
#include "src/reram/qinfer/deploy.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/select.hpp"
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

/// Eval forward that runs every leaf module on its own — no fused blocks.
/// A ResidualBlock is unrolled: its main path child by child, the option-A
/// shortcut by hand, then the add and ReLU as the original ternary.
Tensor child_by_child(Module& m, const Tensor& x) {
  if (auto* seq = dynamic_cast<Sequential*>(&m)) {
    Tensor y = x;
    for (std::size_t i = 0; i < seq->size(); ++i) y = child_by_child(seq->child(i), y);
    return y;
  }
  if (dynamic_cast<ResidualBlock*>(&m) != nullptr) {
    Tensor main_out = child_by_child(*modules_of(m)[1], x);  // [block, main, ...]
    Tensor shortcut(main_out.shape());
    const std::int64_t in_c = x.dim(1), stride = x.dim(2) / main_out.dim(2);
    for (std::int64_t i = 0; i < x.dim(0); ++i) {
      for (std::int64_t c = 0; c < in_c; ++c) {
        for (std::int64_t y = 0; y < main_out.dim(2); ++y) {
          for (std::int64_t xx = 0; xx < main_out.dim(3); ++xx) {
            shortcut.at(i, c, y, xx) = x.at(i, c, y * stride, xx * stride);
          }
        }
      }
    }
    for (std::int64_t i = 0; i < main_out.numel(); ++i) {
      const float s = main_out[i] + shortcut[i];
      main_out[i] = s > 0.0f ? s : 0.0f;
    }
    return main_out;
  }
  return m.forward(x, /*training=*/false);
}

/// Moves every BatchNorm2d off its identity initialization so the fused
/// affine sees real scales and shifts.
void randomize_norms(Module& net, std::uint64_t seed) {
  Rng rng(seed);
  for (Param* p : parameters_of(net)) {
    if (p->kind != ParamKind::kNorm) continue;
    for (std::int64_t i = 0; i < p->value.numel(); ++i) p->value[i] = rng.normal(0.5f, 0.5f);
  }
  std::vector<std::pair<std::string, Tensor*>> buffers;
  net.collect_buffers("", buffers);
  for (auto& [name, t] : buffers) {
    const bool var = name.find("running_var") != std::string::npos;
    for (std::int64_t i = 0; i < t->numel(); ++i) {
      (*t)[i] = var ? rng.uniform(0.2f, 2.0f) : rng.normal(0.0f, 0.5f);
    }
  }
}

/// Fused eval logits == child-by-child logits at every (batch, workers,
/// level).
void expect_fusion_exact(Module& net, std::int64_t image, std::vector<std::int64_t> batches) {
  for (const std::int64_t b : batches) {
    const Tensor x = random_tensor(Shape{b, 3, image, image}, 900 + static_cast<std::uint64_t>(b));
    for (const int workers : {1, 4}) {
      for (const KernelLevel level : runnable_levels()) {
        Pinned pin(workers, level);
        const Tensor fused = net.forward(x, /*training=*/false);
        const Tensor oracle = child_by_child(net, x);
        EXPECT_TRUE(bitwise_equal(fused, oracle))
            << "batch=" << b << " workers=" << workers
            << " level=" << kernels::kernel_level_name(level);
      }
    }
  }
}

TEST(EvalFusion, SmallCnnLogitsMatchChildByChild) {
  auto net = make_small_cnn(SmallCnnConfig{});
  randomize_norms(*net, 1);
  expect_fusion_exact(*net, 16, {1, 7, 16, 256});
}

TEST(EvalFusion, ResNet20LogitsMatchChildByChild) {
  // 12x12 input: stages at 144, 36 and 9 pixels, so micro-tiles straddle
  // image boundaries in the batch-wide GEMM.
  auto net = make_resnet20(10, /*base_width=*/8, /*seed=*/3);
  randomize_norms(*net, 2);
  expect_fusion_exact(*net, 12, {1, 7, 16, 256});
}

TEST(EvalFusion, BiasedConvBlocksWithAndWithoutReluMatch) {
  Rng rng(5);
  Sequential net;
  net.emplace<Conv2d>(3, 6, 3, 1, 1, rng, /*with_bias=*/true);
  net.emplace<BatchNorm2d>(6);
  net.emplace<ReLU>();
  net.emplace<Conv2d>(6, 5, 5, 2, 2, rng, /*with_bias=*/true);
  net.emplace<BatchNorm2d>(5);  // no ReLU: the block ends at BN
  net.emplace<LeakyReLU>(0.1f);
  net.emplace<Conv2d>(5, 4, 1, 1, 0, rng, /*with_bias=*/true);  // a conv with no BN
  randomize_norms(net, 3);
  expect_fusion_exact(net, 9, {1, 7, 16});
}

TEST(EvalFusion, QuantizedSmallCnnHookedPathMatches) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 8, .classes = 4});
  randomize_norms(*net, 4);
  qinfer::QuantizedEngineConfig config;
  config.tile_rows = 64;
  config.tile_cols = 64;
  const auto deployment = qinfer::deploy_quantized(*net, config);
  expect_fusion_exact(*net, 8, {1, 7, 16});
}

// ---------------------------------------------------------------------------
// BranchFreeSelect
// ---------------------------------------------------------------------------

/// NaN, +-0, +-inf, +-denormal and ordinary values.
std::vector<float> special_values() {
  constexpr float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  return {std::numeric_limits<float>::quiet_NaN(),
          -std::numeric_limits<float>::quiet_NaN(),
          0.0f,
          -0.0f,
          inf,
          -inf,
          denorm,
          -denorm,
          std::numeric_limits<float>::min() / 2.0f,
          -std::numeric_limits<float>::min() / 2.0f,
          1.5f,
          -2.25f,
          std::numeric_limits<float>::max(),
          -std::numeric_limits<float>::max()};
}

/// Every value, then every ordered pair, padded past one select block so
/// both the blocked body and the scalar tail run.
Tensor special_tensor() {
  const std::vector<float> v = special_values();
  std::vector<float> data = v;
  for (const float a : v) {
    for (const float b : v) {
      data.push_back(a);
      data.push_back(b);
    }
  }
  const auto n = static_cast<std::int64_t>(data.size());
  return Tensor(Shape{1, 1, 1, n}, std::move(data));
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(float)) == 0; }

TEST(BranchFreeSelect, ReluMatchesTernaryInEvalAndTraining) {
  const Tensor x = special_tensor();
  for (const bool training : {false, true}) {
    ReLU relu;
    const Tensor y = relu.forward(x, training);
    for (std::int64_t i = 0; i < x.numel(); ++i) {
      const float want = x[i] > 0.0f ? x[i] : 0.0f;
      EXPECT_TRUE(same_bits(y[i], want)) << "i=" << i << " x=" << x[i];
    }
    if (training) {
      // The mask selects gradients exactly where x > 0.
      const Tensor g = relu.backward(Tensor(x.shape(), 1.0f));
      for (std::int64_t i = 0; i < x.numel(); ++i) {
        EXPECT_EQ(g[i], x[i] > 0.0f ? 1.0f : 0.0f) << "i=" << i;
      }
    }
  }
}

TEST(BranchFreeSelect, LeakyReluMatchesTernaryForwardAndBackward) {
  const Tensor x = special_tensor();
  const float slope = 0.01f;
  LeakyReLU leaky(slope);
  const Tensor y = leaky.forward(x, /*training=*/true);
  const Tensor dy = special_tensor();
  const Tensor dx = leaky.backward(dy);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    EXPECT_TRUE(same_bits(y[i], x[i] > 0.0f ? x[i] : slope * x[i])) << "i=" << i;
    EXPECT_TRUE(same_bits(dx[i], x[i] > 0.0f ? dy[i] : slope * dy[i])) << "i=" << i;
  }
}

TEST(BranchFreeSelect, MaxPoolMatchesStrictGreaterScan) {
  // Every 2x2 window of a row-pair image built from the special values.
  const std::vector<float> v = special_values();
  const auto n = static_cast<std::int64_t>(v.size());
  Tensor x(Shape{1, 1, 2 * n, 2 * n});
  Rng rng(6);
  for (std::int64_t i = 0; i < x.numel(); ++i) x[i] = v[rng.uniform_int(v.size())];
  for (const bool training : {false, true}) {
    MaxPool2d pool(2, 2);
    const Tensor y = pool.forward(x, training);
    for (std::int64_t oy = 0; oy < n; ++oy) {
      for (std::int64_t ox = 0; ox < n; ++ox) {
        float best = -std::numeric_limits<float>::infinity();
        for (std::int64_t ky = 0; ky < 2; ++ky) {
          for (std::int64_t kx = 0; kx < 2; ++kx) {
            const float e = x.at(0, 0, 2 * oy + ky, 2 * ox + kx);
            if (e > best) best = e;
          }
        }
        EXPECT_TRUE(same_bits(y.at(0, 0, oy, ox), best)) << "oy=" << oy << " ox=" << ox;
      }
    }
  }
}

TEST(BranchFreeSelect, ResidualAddReluMatchesTernary) {
  const Tensor a = special_tensor();
  Tensor b = special_tensor();
  Rng rng(7);
  const auto n = static_cast<std::uint64_t>(a.numel());
  for (std::int64_t i = 0; i < b.numel(); ++i) {
    b[i] = a[static_cast<std::int64_t>(rng.uniform_int(n))];
  }
  Tensor acc = a;
  zip_elems(acc.data(), b.data(), acc.numel(), [](float m, float s) { return relu_select(m + s); });
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    const float s = a[i] + b[i];
    EXPECT_TRUE(same_bits(acc[i], s > 0.0f ? s : 0.0f)) << "i=" << i;
  }
}

}  // namespace
}  // namespace ftpim
