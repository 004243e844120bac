// Int8 quantized-MVM kernel throughput (BENCH_qgemm.json).
//
// Times the qgemm backend — the integer compute core of the quantized
// crossbar engine — at crossbar-tile shapes: int8 scalar vs AVX2, against
// the float packed GEMM at the same (m, n, k) as the reference point. B is
// packed OUTSIDE the timed region (tiles pack once per program/fault event,
// never per MVM), matching how the engine amortizes it.
//
// Also measures the end-to-end QuantizedCrossbarEngine::mvm_batch against
// CrossbarEngine::mvm_batch on a Linear-layer-sized matrix and on two small
// layers that map onto a corner of one tile, so the JSON records what a
// deployed replica actually pays per batch.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/reram/crossbar_engine.hpp"
#include "src/reram/qinfer/quantized_engine.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/kernels/qgemm.hpp"
#include "src/tensor/tensor.hpp"

namespace {

using namespace ftpim;

struct QShape {
  std::int64_t m, n, k;
};

Tensor random_tensor(Shape shape, std::uint64_t seed) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = rng.normal();
  return t;
}

/// Best-of-3 GOP/s (1 op = one multiply-accumulate pair, matching the float
/// GFLOP/s convention of 2*m*n*k) over ~50ms of repetitions.
template <typename Fn>
double time_gops(const QShape& s, const Fn& fn) {
  const double ops =
      2.0 * static_cast<double>(s.m) * static_cast<double>(s.n) * static_cast<double>(s.k);
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
  return ops / best * 1e-9;
}

void run_kernel_sweep(bench::BenchJsonWriter& json) {
  // Tile-shaped (n = bitlines <= 128, k = wordlines) plus one Linear-like
  // batch GEMM and a ragged shape hitting every edge path.
  const std::vector<QShape> shapes = {
      {32, 128, 128}, {128, 128, 128}, {256, 128, 128}, {64, 128, 512},
      {256, 64, 256}, {37, 51, 129},
  };

  std::vector<kernels::KernelLevel> levels = {kernels::KernelLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(kernels::KernelLevel::kAvx2);

  set_num_threads(1);
  std::printf("=== int8 qmvm kernel sweep (single thread) ===\n");
  std::printf("%18s %12s %12s %12s\n", "shape (m,n,k)", "kernel", "GOP/s", "vs float");
  for (const QShape& s : shapes) {
    // Operands at the datapath's real ranges: int8 codes, u8 level indices.
    Rng rng(7);
    const std::int64_t lda = s.k + (s.k & 1);
    std::vector<std::int8_t> a(static_cast<std::size_t>(s.m * lda), 0);
    for (std::int64_t i = 0; i < s.m; ++i) {
      for (std::int64_t p = 0; p < s.k; ++p) {
        a[static_cast<std::size_t>(i * lda + p)] =
            static_cast<std::int8_t>(static_cast<int>(rng.uniform_int(255)) - 127);
      }
    }
    std::vector<std::uint8_t> b(static_cast<std::size_t>(s.k * s.n));
    for (auto& v : b) v = static_cast<std::uint8_t>(rng.uniform_int(16));
    std::vector<std::uint8_t> packed(kernels::packed_levels_bytes(s.k, s.n));
    kernels::pack_levels(b.data(), s.k, s.n, s.n, packed.data());
    std::vector<std::int32_t> c(static_cast<std::size_t>(s.m * s.n));

    // Float reference at the same shape through the packed backend.
    const Tensor fa = random_tensor(Shape{s.m, s.k}, 1);
    const Tensor fb = random_tensor(Shape{s.k, s.n}, 2);
    Tensor fc(Shape{s.m, s.n});
    const double float_gf = time_gops(
        s, [&] { gemm(s.m, s.n, s.k, 1.0f, fa.data(), fb.data(), 0.0f, fc.data()); });

    char shape_buf[48];
    std::snprintf(shape_buf, sizeof(shape_buf), "%lldx%lldx%lld", static_cast<long long>(s.m),
                  static_cast<long long>(s.n), static_cast<long long>(s.k));
    std::printf("%18s %12s %12.2f %12s\n", shape_buf, "float", float_gf, "1.00x");
    json.point()
        .num("m", static_cast<double>(s.m))
        .num("n", static_cast<double>(s.n))
        .num("k", static_cast<double>(s.k))
        .str("kernel", "float_packed")
        .num("gops", float_gf)
        .num("speedup_vs_float", 1.0);

    for (const kernels::KernelLevel level : levels) {
      const kernels::QmvmKernel kern = kernels::select_qmvm_kernel(level);
      const double gf = time_gops(
          s, [&] { kern(s.m, s.n, s.k, a.data(), lda, packed.data(), c.data(), s.n); });
      char name[16];
      std::snprintf(name, sizeof(name), "int8_%s", kernels::kernel_level_name(level));
      std::printf("%18s %12s %12.2f %11.2fx\n", shape_buf, name, gf, gf / float_gf);
      json.point()
          .num("m", static_cast<double>(s.m))
          .num("n", static_cast<double>(s.n))
          .num("k", static_cast<double>(s.k))
          .str("kernel", name)
          .num("gops", gf)
          .num("speedup_vs_float", gf / float_gf);
    }
  }
  set_num_threads(0);
}

struct EngineCase {
  const char* name;
  std::int64_t batch, out, in;
  bool abft;
};

void run_engine_points(bench::BenchJsonWriter& json) {
  // A Linear-layer-sized deployment that fills whole 128 x 128 tiles, plus
  // two layers that fill only a corner of one tile (ABFT on, as deployed):
  // the SmallCNN conv1 hook (256 pixels of 3x3x3 patches -> 8 channels) and
  // the fleet MLP's first layer (16 -> 24).
  const std::vector<EngineCase> cases = {
      {"linear", 64, 256, 512, false},
      {"conv1_hook", 256, 8, 27, true},
      {"fleet_mlp", 16, 24, 16, true},
  };
  std::printf("\n=== engine mvm_batch (default 128x128 tiles, 16 levels, threads=default) ===\n");
  for (const EngineCase& e : cases) {
    const Tensor w = random_tensor(Shape{e.out, e.in}, 11);
    const Tensor x = random_tensor(Shape{e.batch, e.in}, 13);
    std::vector<float> y(static_cast<std::size_t>(e.batch * e.out));

    CrossbarEngineConfig fc;
    fc.quant_levels = 16;
    const CrossbarEngine fe(w, fc);
    qinfer::QuantizedEngineConfig qc;
    qc.levels = 16;
    qc.abft.enabled = e.abft;
    const qinfer::QuantizedCrossbarEngine qe(w, qc);

    const QShape s{e.batch, e.out, e.in};
    const double float_gf = time_gops(s, [&] { fe.mvm_batch(x.data(), e.batch, y.data()); });
    const double quant_gf = time_gops(s, [&] { qe.mvm_batch(x.data(), e.batch, y.data()); });
    std::printf("%12s batch=%-4lld %4lld -> %-4lld abft=%d  float %8.2f  quantized %8.2f GOP/s "
                "(%.2fx)\n",
                e.name, static_cast<long long>(e.batch), static_cast<long long>(e.in),
                static_cast<long long>(e.out), e.abft ? 1 : 0, float_gf, quant_gf,
                quant_gf / float_gf);
    json.point()
        .str("kernel", "engine_float_mvm_batch")
        .str("case", e.name)
        .num("m", static_cast<double>(e.batch))
        .num("n", static_cast<double>(e.out))
        .num("k", static_cast<double>(e.in))
        .num("gops", float_gf)
        .num("speedup_vs_float", 1.0);
    json.point()
        .str("kernel", "engine_quantized_mvm_batch")
        .str("case", e.name)
        .num("m", static_cast<double>(e.batch))
        .num("n", static_cast<double>(e.out))
        .num("k", static_cast<double>(e.in))
        .num("abft", e.abft ? 1 : 0)
        .num("gops", quant_gf)
        .num("speedup_vs_float", quant_gf / float_gf);
  }
}

}  // namespace

int main() {
  bench::BenchJsonWriter json("qgemm_kernels");
  json.meta()
      .num("threads", 1)
      .str("default_level", kernels::kernel_level_name(kernels::active_kernel_level()))
      .num("avx2_available", kernels::avx2_available() ? 1 : 0);
  run_kernel_sweep(json);
  run_engine_points(json);
  json.write(env_string("FTPIM_BENCH_JSON", "BENCH_qgemm.json"));
  return 0;
}
