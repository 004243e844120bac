// Training-memory budget: the live heap one fault-tolerant training step
// needs above the model and its data.
//
// This executable replaces the global operator new/delete with a counting
// pair (a size header in front of every block), so it is built apart from
// ftpim_tests. The budget pins what the training caches cost: BatchNorm ->
// ReLU -> Conv2d activations are rebuilt from BN's normalized input instead
// of cached, ResidualBlock rebuilds its sum mask, and Conv2d::backward keeps
// one dW partial per running worker. Before that rework the same step peaked
// at 15.76 MB.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "src/common/parallel.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/resnet.hpp"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

// Keeps every block aligned as plain operator new must.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t bytes) {
  void* raw = std::malloc(bytes + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = bytes;
  const std::int64_t live =
      g_live.fetch_add(static_cast<std::int64_t>(bytes)) + static_cast<std::int64_t>(bytes);
  std::int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
  return static_cast<char*>(raw) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  char* raw = static_cast<char*>(p) - kHeader;
  g_live.fetch_sub(static_cast<std::int64_t>(*reinterpret_cast<std::size_t*>(raw)));
  std::free(raw);
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }

namespace ftpim {
namespace {

constexpr double kMiB = 1024.0 * 1024.0;

TEST(TrainMemory, ResNet20Width8Batch64StepFitsTheBudget) {
  set_num_threads(1);
  SynthVisionConfig data;
  data.image_size = 16;
  data.samples = 64;  // one batch: the run is exactly one step
  data.noise_std = 0.3f;
  const auto train = make_synthvision(data, /*sample_stream=*/5);
  const std::unique_ptr<Module> model = make_resnet20(10, 8, 1);

  FtTrainConfig ft;
  ft.base.epochs = 1;
  ft.base.batch_size = 64;
  ft.target_p_sa = 0.01;
  ft.refresh = FaultRefresh::kPerIteration;

  const std::int64_t base = g_live.load();
  g_peak.store(base);
  {
    FaultTolerantTrainer trainer(*model, *train, ft);
    (void)trainer.run();
  }
  const double step_peak_mb = static_cast<double>(g_peak.load() - base) / kMiB;
  std::printf("FT step peak live heap above model + data: %.2f MB\n", step_peak_mb);
  EXPECT_LE(step_peak_mb, 12.5);
  set_num_threads(0);
}

}  // namespace
}  // namespace ftpim
