// Substrate micro-benchmarks: GEMM, conv forward, weight-space fault
// injection, defect-map sampling, crossbar MVM, and the parallel Monte-Carlo
// defect evaluation. Engineering baseline, not a paper artifact.
//
// Running the binary always performs the kernel-backend sweep and writes
// BENCH_gemm.json (override path with FTPIM_BENCH_JSON): GFLOP/s per shape
// for the seed scalar kernel (the pre-backend blocked loop, kept here as the
// perf-trajectory baseline) and for each runnable dispatch level of the
// packed backend, then conv-forward points (SmallCNN and ResNet-20 conv
// blocks at batch 1/16/256: per-image vs batch-wide lowering, unfused vs
// fused Conv2d -> BatchNorm2d -> ReLU). The google-benchmark suite additionally runs when any
// command-line flag is passed (e.g. --benchmark_filter=.) or
// FTPIM_MICROBENCH=1 is set.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/core/evaluator.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/small_cnn.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm2d.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/sequential.hpp"
#include "src/reram/crossbar_engine.hpp"
#include "src/reram/defect_map.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/kernels/conv_kernels.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/tensor.hpp"

namespace {

using namespace ftpim;

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal();
  return t;
}

// ---------------------------------------------------------------------------
// Seed baseline: the blocked triple loop that was ftpim::gemm before the
// packed kernel backend (PR 6), verbatim minus threading. Kept so
// BENCH_gemm.json records the speedup trajectory against a fixed reference.
// ---------------------------------------------------------------------------
void seed_gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha, const float* a,
               const float* b, float beta, float* c) {
  constexpr std::int64_t kBlockK = 256;
  constexpr std::int64_t kBlockN = 128;
  if (beta == 0.0f) {
    std::memset(c, 0, static_cast<std::size_t>(m * n) * sizeof(float));
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < m * n; ++i) c[i] *= beta;
  }
  for (std::int64_t kk = 0; kk < k; kk += kBlockK) {
    const std::int64_t kend = std::min(k, kk + kBlockK);
    for (std::int64_t nn = 0; nn < n; nn += kBlockN) {
      const std::int64_t nend = std::min(n, nn + kBlockN);
      for (std::int64_t i = 0; i < m; ++i) {
        const float* arow = a + i * k;
        float* crow = c + i * n;
        for (std::int64_t p = kk; p < kend; ++p) {
          const float av = alpha * arow[p];
          if (av == 0.0f) continue;
          const float* brow = b + p * n;
          for (std::int64_t j = nn; j < nend; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
}

struct GemmShape {
  std::int64_t m, n, k;
};

/// Best-of-3 GFLOP/s for fn(c) over enough repetitions to fill ~50ms.
template <typename Fn>
double time_gflops(const GemmShape& s, const Fn& fn) {
  const double flops = 2.0 * static_cast<double>(s.m) * static_cast<double>(s.n) *
                       static_cast<double>(s.k);
  // Calibrate repetitions from one warm-up run (which also pages buffers in).
  Timer warm;
  fn();
  const double once = std::max(warm.seconds(), 1e-7);
  const int reps = std::max(1, static_cast<int>(0.05 / once));
  double best = 1e30;
  for (int trial = 0; trial < 3; ++trial) {
    Timer t;
    for (int r = 0; r < reps; ++r) fn();
    best = std::min(best, t.seconds() / reps);
  }
  return flops / best * 1e-9;
}

struct ConvShape {
  const char* name;
  std::int64_t in_c, out_c, side;
};

/// Conv forward (3x3, stride 1, pad 1) of the serve model's and the FT
/// training model's conv blocks at the default dispatch level, per image:
///   per_image   one GEMM per image (the lowering before batch-wide calls)
///   batch_wide  one GEMM over the whole batch
///   unfused     Conv2d, BatchNorm2d, ReLU eval forwards one after another
///   fused       the same block through Sequential's fused eval forward
void run_conv_sweep(bench::BenchJsonWriter& json) {
  const ConvShape shapes[] = {
      {"smallcnn.conv1", 3, 8, 16},   {"smallcnn.conv2", 8, 16, 8},
      {"resnet20.stage1", 8, 8, 16},  {"resnet20.stage2", 16, 16, 8},
      {"resnet20.stage3", 32, 32, 4},
  };
  std::printf("\n=== conv forward (single thread, %s) ===\n",
              kernels::kernel_level_name(kernels::active_kernel_level()));
  std::printf("%16s %6s %12s %12s %10s\n", "conv", "batch", "mode", "us/image", "GFLOP/s");
  for (const ConvShape& cs : shapes) {
    Rng rng(11);
    Sequential block;
    auto& conv = block.emplace<Conv2d>(cs.in_c, cs.out_c, 3, 1, 1, rng);
    block.emplace<BatchNorm2d>(cs.out_c);
    block.emplace<ReLU>();
    const ConvGeometry g{.in_c = cs.in_c, .in_h = cs.side, .in_w = cs.side, .kernel_h = 3,
                         .kernel_w = 3, .stride_h = 1, .stride_w = 1, .pad_h = 1, .pad_w = 1};
    const std::int64_t in_plane = cs.in_c * cs.side * cs.side;
    const std::int64_t out_plane = cs.out_c * g.col_cols();
    const float* w = conv.weight().value.data();
    for (const std::int64_t batch : {1, 16, 256}) {
      const Tensor x = random_tensor(Shape{batch, cs.in_c, cs.side, cs.side}, 3);
      Tensor y(Shape{batch, cs.out_c, cs.side, cs.side});
      const GemmShape flops_shape{cs.out_c, batch * g.col_cols(), g.col_rows()};
      const auto per_image = [&] {
        for (std::int64_t i = 0; i < batch; ++i) {
          kernels::conv_forward_packed(g, w, cs.out_c, x.data() + i * in_plane,
                                       y.data() + i * out_plane);
        }
      };
      const auto batch_wide = [&] {
        kernels::conv_forward_packed(g, w, cs.out_c, x.data(), y.data(), batch);
      };
      const auto unfused = [&] {
        Tensor t = x;
        for (std::size_t i = 0; i < block.size(); ++i) t = block.child(i).forward(t, false);
        benchmark::DoNotOptimize(t.data());
      };
      const auto fused = [&] { benchmark::DoNotOptimize(block.forward(x, false).data()); };
      const std::pair<const char*, std::function<void()>> modes[] = {
          {"per_image", per_image}, {"batch_wide", batch_wide}, {"unfused", unfused},
          {"fused", fused}};
      for (const auto& [mode, fn] : modes) {
        const double gf = time_gflops(flops_shape, fn);
        const double us = 2e-3 * static_cast<double>(flops_shape.m * flops_shape.n *
                                                      flops_shape.k) /
                          gf / static_cast<double>(batch);
        std::printf("%16s %6lld %12s %12.2f %10.2f\n", cs.name, static_cast<long long>(batch),
                    mode, us, gf);
        json.point()
            .str("conv", cs.name)
            .num("in_c", static_cast<double>(cs.in_c))
            .num("out_c", static_cast<double>(cs.out_c))
            .num("side", static_cast<double>(cs.side))
            .num("batch", static_cast<double>(batch))
            .str("mode", mode)
            .str("kernel", kernels::kernel_level_name(kernels::active_kernel_level()))
            .num("threads", 1)
            .num("us_per_image", us)
            .num("gflops", gf);
      }
    }
  }
}

/// Sweeps seed baseline + every runnable dispatch level over representative
/// shapes and writes the committed BENCH_gemm.json artifact. Single-threaded
/// (set_num_threads(1)) so the number measured is the micro-kernel + packing,
/// not the parallel partitioning.
void run_gemm_sweep(const std::string& path) {
  // Square sizes, one conv-forward-like shape (out_c x pixels x patch), one
  // Linear-like shape (batch x features x features), and a ragged edge case
  // exercising partial tiles on every macro dimension.
  const std::vector<GemmShape> shapes = {
      {64, 64, 64},   {128, 128, 128}, {256, 256, 256}, {384, 384, 384},
      {64, 1024, 576}, {32, 512, 512}, {147, 203, 101},
  };

  std::vector<kernels::KernelLevel> levels = {kernels::KernelLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(kernels::KernelLevel::kAvx2);

  bench::BenchJsonWriter json("gemm_kernels");
  json.meta()
      .num("threads", 1)
      .str("default_level", kernels::kernel_level_name(kernels::active_kernel_level()))
      .num("avx2_available", kernels::avx2_available() ? 1 : 0);

  set_num_threads(1);
  std::printf("=== packed GEMM sweep (single thread) ===\n");
  std::printf("%18s %10s %12s %12s\n", "shape (m,n,k)", "kernel", "GFLOP/s", "vs seed");
  for (const GemmShape& s : shapes) {
    const Tensor a = random_tensor(Shape{s.m, s.k}, 1);
    const Tensor b = random_tensor(Shape{s.k, s.n}, 2);
    Tensor c(Shape{s.m, s.n});

    const double seed_gf = time_gflops(
        s, [&] { seed_gemm(s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, c.data()); });
    char shape_buf[48];
    std::snprintf(shape_buf, sizeof(shape_buf), "%lldx%lldx%lld", static_cast<long long>(s.m),
                  static_cast<long long>(s.n), static_cast<long long>(s.k));
    std::printf("%18s %10s %12.2f %12s\n", shape_buf, "seed", seed_gf, "1.00x");
    json.point()
        .num("m", static_cast<double>(s.m))
        .num("n", static_cast<double>(s.n))
        .num("k", static_cast<double>(s.k))
        .str("kernel", "seed")
        .num("threads", 1)
        .num("gflops", seed_gf)
        .num("speedup_vs_seed", 1.0);

    for (const kernels::KernelLevel level : levels) {
      kernels::set_kernel_level(level);
      const double gf = time_gflops(
          s, [&] { gemm(s.m, s.n, s.k, 1.0f, a.data(), b.data(), 0.0f, c.data()); });
      kernels::clear_kernel_level_override();
      const char* name = kernels::kernel_level_name(level);
      std::printf("%18s %10s %12.2f %11.2fx\n", shape_buf, name, gf, gf / seed_gf);
      json.point()
          .num("m", static_cast<double>(s.m))
          .num("n", static_cast<double>(s.n))
          .num("k", static_cast<double>(s.k))
          .str("kernel", name)
          .num("threads", 1)
          .num("gflops", gf)
          .num("speedup_vs_seed", gf / seed_gf);
    }
  }
  run_conv_sweep(json);
  set_num_threads(0);
  json.write(path);
}

// ---------------------------------------------------------------------------
// google-benchmark suite (opt-in: any CLI flag or FTPIM_MICROBENCH=1)
// ---------------------------------------------------------------------------

void BM_Gemm(benchmark::State& state) {
  const auto n = state.range(0);
  const Tensor a = random_tensor(Shape{n, n}, 1);
  const Tensor b = random_tensor(Shape{n, n}, 2);
  Tensor c(Shape{n, n});
  for (auto _ : state) {
    gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_SmallCnnForward(benchmark::State& state) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  const Tensor x = random_tensor(Shape{32, 3, 16, 16}, 3);
  for (auto _ : state) {
    Tensor y = net->forward(x, /*training=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_SmallCnnForward);

void BM_FaultInjection(benchmark::State& state) {
  Tensor w = random_tensor(Shape{state.range(0)}, 4);
  const StuckAtFaultModel model(0.01);
  const InjectorConfig config;
  Rng rng(5);
  Tensor scratch = w;
  for (auto _ : state) {
    scratch = w;
    apply_stuck_at_faults(scratch, model, config, rng);
    benchmark::DoNotOptimize(scratch.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FaultInjection)->Arg(1 << 14)->Arg(1 << 18);

void BM_DefectMapSample(benchmark::State& state) {
  const StuckAtFaultModel model(0.01);
  Rng rng(6);
  for (auto _ : state) {
    DefectMap map = DefectMap::sample(state.range(0), model, rng);
    benchmark::DoNotOptimize(map.fault_count());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DefectMapSample)->Arg(1 << 16)->Arg(1 << 20);

void BM_CrossbarMvm(benchmark::State& state) {
  const auto dim = state.range(0);
  const Tensor w = random_tensor(Shape{dim, dim}, 7);
  CrossbarEngine engine(w, CrossbarEngineConfig{});
  std::vector<float> x(static_cast<std::size_t>(dim), 0.5f);
  std::vector<float> y(static_cast<std::size_t>(dim));
  for (auto _ : state) {
    engine.mvm(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * dim * dim);
}
BENCHMARK(BM_CrossbarMvm)->Arg(128)->Arg(256);

// Batched MVM amortizes packing + tile traversal over the whole batch.
void BM_CrossbarMvmBatch(benchmark::State& state) {
  const std::int64_t dim = 128;
  const auto batch = state.range(0);
  const Tensor w = random_tensor(Shape{dim, dim}, 7);
  CrossbarEngine engine(w, CrossbarEngineConfig{});
  std::vector<float> x(static_cast<std::size_t>(batch * dim), 0.5f);
  std::vector<float> y(static_cast<std::size_t>(batch * dim));
  for (auto _ : state) {
    engine.mvm_batch(x.data(), batch, y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * dim * dim * batch);
}
BENCHMARK(BM_CrossbarMvmBatch)->Arg(1)->Arg(8)->Arg(32);

// End-to-end Monte-Carlo defect evaluation at a fixed worker count
// (state.range(0) overrides FTPIM_THREADS). Run with Arg(1) vs Arg(2)/Arg(4)
// to measure the run-level fan-out; run_accs are bit-identical across args.
void BM_DefectEval(benchmark::State& state) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  SynthVisionConfig sv;
  sv.num_classes = 10;
  sv.image_size = 16;
  sv.samples = 128;
  sv.seed = 8;
  const auto data = make_synthvision(sv, /*sample_stream=*/1);
  DefectEvalConfig cfg;
  cfg.num_runs = 8;
  cfg.seed = 99;
  set_num_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    const DefectEvalResult r = evaluate_under_defects(*net, *data, /*p_sa=*/0.05, cfg);
    benchmark::DoNotOptimize(r.mean_acc);
  }
  set_num_threads(0);  // back to FTPIM_THREADS / hardware default
  state.SetItemsProcessed(state.iterations() * cfg.num_runs);
}
BENCHMARK(BM_DefectEval)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

// Cost of the deep copy each evaluation worker makes.
void BM_ModelClone(benchmark::State& state) {
  auto net = make_small_cnn(SmallCnnConfig{.image_size = 16, .width = 8, .classes = 10});
  for (auto _ : state) {
    auto copy = net->clone();
    benchmark::DoNotOptimize(copy.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelClone);

}  // namespace

int main(int argc, char** argv) {
  run_gemm_sweep(env_string("FTPIM_BENCH_JSON", "BENCH_gemm.json"));
  const bool run_suite = argc > 1 || env_int_in("FTPIM_MICROBENCH", 0, 0, 1) != 0;
  if (run_suite) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  return 0;
}
