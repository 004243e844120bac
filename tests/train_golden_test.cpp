// Golden digests of fault-tolerant training.
//
// Every case runs a short FT retrain with a fresh stuck-at map every
// iteration, then hashes every parameter value and gradient, the BatchNorm
// running statistics and the epoch losses. The digests were recorded before
// the training-side caches were reworked (BatchNorm -> ReLU -> Conv2d rebuilt
// from BN's normalized input, no residual sum mask), so a single float that
// moves in any forward, backward, optimizer step or fault draw shows up here.
// Each digest must hold at 1 and 4 workers; the packed kernels round
// differently per kernel level, so each level has its own digest.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "src/common/parallel.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/mlp.hpp"
#include "src/models/resnet.hpp"
#include "src/models/small_cnn.hpp"
#include "src/nn/pooling.hpp"
#include "src/tensor/kernels/dispatch.hpp"

namespace ftpim {
namespace {

using kernels::KernelLevel;

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

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t digest(std::uint64_t h, const Tensor& t) {
  return fnv(h, t.data(), static_cast<std::size_t>(t.numel()) * sizeof(float));
}

struct GoldenJob {
  std::function<std::unique_ptr<Module>()> make_model;
  std::int64_t image_size;
  std::int64_t classes;
  std::int64_t samples;
  std::int64_t batch;
};

/// Runs the job's FT retrain on the current thread/kernel settings and
/// digests everything training wrote.
std::uint64_t train_digest(const GoldenJob& job) {
  SynthVisionConfig data;
  data.num_classes = job.classes;
  data.image_size = job.image_size;
  data.samples = job.samples;
  data.noise_std = 0.3f;
  const auto train = make_synthvision(data, /*sample_stream=*/3);
  const std::unique_ptr<Module> model = job.make_model();

  FtTrainConfig ft;
  ft.base.epochs = 2;
  ft.base.batch_size = job.batch;
  ft.base.sgd.lr = 0.05f;
  ft.base.seed = 17;
  ft.target_p_sa = 0.02;
  ft.refresh = FaultRefresh::kPerIteration;
  ft.fault_seed = 29;
  FaultTolerantTrainer trainer(*model, *train, ft);
  const FtTrainStats stats = trainer.run();

  std::uint64_t h = kFnvBasis;
  for (const Param* p : parameters_of(*model)) h = digest(digest(h, p->value), p->grad);
  std::vector<std::pair<std::string, Tensor*>> buffers;
  model->collect_buffers("", buffers);
  for (const auto& [name, tensor] : buffers) h = digest(h, *tensor);
  for (const TrainStats& stage : stats.stage_stats) {
    h = fnv(h, stage.epoch_losses.data(), stage.epoch_losses.size() * sizeof(float));
  }
  return h;
}

/// Checks the job's digest at 1 and 4 workers on every runnable kernel level.
void expect_golden(const GoldenJob& job, const std::map<KernelLevel, std::uint64_t>& expected) {
  for (const auto& [level, digest_at_level] : expected) {
    if (level == KernelLevel::kAvx2 && !kernels::avx2_available()) continue;
    for (const int workers : {1, 4}) {
      SCOPED_TRACE(::testing::Message() << "level " << static_cast<int>(level) << ", "
                                        << workers << " workers");
      const Pinned pin(workers, level);
      const std::uint64_t actual = train_digest(job);
      EXPECT_EQ(actual, digest_at_level) << std::hex << "actual digest 0x" << actual;
    }
  }
}

TEST(TrainGolden, ResNet20Width8Batch64) {
  const GoldenJob job{.make_model = [] { return make_resnet20(10, 8, 5); },
                      .image_size = 16,
                      .classes = 10,
                      .samples = 128,
                      .batch = 64};
  expect_golden(job, {{KernelLevel::kScalar, 0x7039451a93a32318ull},
                      {KernelLevel::kAvx2, 0xab1416cf59b6f755ull}});
}

TEST(TrainGolden, SmallCnn) {
  const GoldenJob job{
      .make_model =
          [] {
            return make_small_cnn(
                SmallCnnConfig{.image_size = 8, .width = 4, .classes = 3, .seed = 7});
          },
      .image_size = 8,
      .classes = 3,
      .samples = 96,
      .batch = 32};
  expect_golden(job, {{KernelLevel::kScalar, 0xd8083c14f0379ba5ull},
                      {KernelLevel::kAvx2, 0x655eeec54edf6975ull}});
}

TEST(TrainGolden, Mlp) {
  const GoldenJob job{.make_model =
                          [] {
                            auto net = std::make_unique<Sequential>();
                            net->emplace<Flatten>();
                            net->add(make_mlp({3 * 4 * 4, 32, 16, 3}, 11));
                            return net;
                          },
                      .image_size = 4,
                      .classes = 3,
                      .samples = 96,
                      .batch = 32};
  expect_golden(job, {{KernelLevel::kScalar, 0x9fce56ff3ad99e4cull},
                      {KernelLevel::kAvx2, 0xc8661a0fc5f04e49ull}});
}

}  // namespace
}  // namespace ftpim
