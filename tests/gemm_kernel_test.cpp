// Property tests for the packed kernel backend (src/tensor/kernels/):
//   * packed GEMM vs a naive triple loop, per dispatch level, across seeded
//     shapes including ragged edge tiles and all transpose variants;
//   * bit-identity of GEMM and Conv2d forward/backward across FTPIM_THREADS
//     at a fixed dispatch level (the repo's determinism contract);
//   * scalar/AVX2 agreement within float tolerance;
//   * the row-segment im2col gather vs a per-element oracle, and batch-wide
//     conv lowering (with its epilogue) vs per-image calls, bit for bit;
//   * the FTPIM_KERNEL dispatch contract (parse, override, clamping).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/nn/conv2d.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/im2col.hpp"
#include "src/tensor/kernels/conv_kernels.hpp"
#include "src/tensor/kernels/dispatch.hpp"
#include "src/tensor/kernels/pack.hpp"
#include "src/tensor/tensor.hpp"
#include "test_util.hpp"

namespace ftpim {
namespace {

using kernels::KernelLevel;
using testing::random_tensor;

/// Pins the dispatch level for a scope; restores the ambient default on exit.
class LevelGuard {
 public:
  explicit LevelGuard(KernelLevel level) { kernels::set_kernel_level(level); }
  ~LevelGuard() { kernels::clear_kernel_level_override(); }
};

/// Pins the worker count for a scope.
class ThreadGuard {
 public:
  explicit ThreadGuard(int n) { set_num_threads(n); }
  ~ThreadGuard() { set_num_threads(0); }
};

std::vector<KernelLevel> runnable_levels() {
  std::vector<KernelLevel> levels = {KernelLevel::kScalar};
  if (kernels::avx2_available()) levels.push_back(KernelLevel::kAvx2);
  return levels;
}

void naive_gemm(std::int64_t m, std::int64_t n, std::int64_t k, float alpha, const float* a,
                const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(a[i * k + p]) * b[p * n + j];
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

void naive_gemm_at(std::int64_t m, std::int64_t n, std::int64_t k, float alpha, const float* a,
                   const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(a[p * m + i]) * b[p * n + j];
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

void naive_gemm_bt(std::int64_t m, std::int64_t n, std::int64_t k, float alpha, const float* a,
                   const float* b, float beta, float* c) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += static_cast<double>(a[i * k + p]) * b[j * k + p];
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
}

struct GemmDims {
  std::int64_t m, n, k;
};

// Shapes chosen to cross every blocking boundary: exact micro-tiles (6x16),
// one-off ragged edges, sub-tile problems, K spanning multiple kKC=256 slabs,
// and M spanning multiple kMC=96 blocks / worker panels.
const GemmDims kShapes[] = {
    {1, 1, 1},    {6, 16, 16},  {7, 17, 31},   {5, 15, 64},   {12, 32, 256},
    {13, 48, 257}, {33, 65, 129}, {97, 40, 300}, {100, 1, 50},  {1, 100, 50},
    {64, 300, 17}, {200, 96, 64},
};

class GemmKernelParamTest : public ::testing::TestWithParam<GemmDims> {};

TEST_P(GemmKernelParamTest, MatchesNaiveAtEveryLevel) {
  const auto [m, n, k] = GetParam();
  const Tensor a = random_tensor(Shape{m, k}, 21);
  const Tensor b = random_tensor(Shape{k, n}, 22);
  const Tensor c0 = random_tensor(Shape{m, n}, 23);

  Tensor ref = c0;
  naive_gemm(m, n, k, 1.5f, a.data(), b.data(), 0.5f, ref.data());
  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor c = c0;
    gemm(m, n, k, 1.5f, a.data(), b.data(), 0.5f, c.data());
    EXPECT_TRUE(c.allclose(ref, 1e-3f, 1e-3f))
        << "level=" << kernels::kernel_level_name(level) << " m=" << m << " n=" << n
        << " k=" << k;
  }
}

TEST_P(GemmKernelParamTest, TransposedVariantsMatchNaiveAtEveryLevel) {
  const auto [m, n, k] = GetParam();
  const Tensor a_t = random_tensor(Shape{k, m}, 24);  // gemm_at operand
  const Tensor b_t = random_tensor(Shape{n, k}, 25);  // gemm_bt operand
  const Tensor a = random_tensor(Shape{m, k}, 26);
  const Tensor b = random_tensor(Shape{k, n}, 27);
  const Tensor c0 = random_tensor(Shape{m, n}, 28);

  Tensor ref_at = c0;
  naive_gemm_at(m, n, k, 2.0f, a_t.data(), b.data(), 1.0f, ref_at.data());
  Tensor ref_bt = c0;
  naive_gemm_bt(m, n, k, 1.0f, a.data(), b_t.data(), 0.0f, ref_bt.data());

  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor c_at = c0;
    gemm_at(m, n, k, 2.0f, a_t.data(), b.data(), 1.0f, c_at.data());
    EXPECT_TRUE(c_at.allclose(ref_at, 1e-3f, 1e-3f))
        << "gemm_at level=" << kernels::kernel_level_name(level) << " m=" << m << " n=" << n
        << " k=" << k;
    Tensor c_bt = c0;
    gemm_bt(m, n, k, 1.0f, a.data(), b_t.data(), 0.0f, c_bt.data());
    EXPECT_TRUE(c_bt.allclose(ref_bt, 1e-3f, 1e-3f))
        << "gemm_bt level=" << kernels::kernel_level_name(level) << " m=" << m << " n=" << n
        << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmKernelParamTest, ::testing::ValuesIn(kShapes));

TEST(GemmKernelDeterminism, BitIdenticalAcrossThreadCounts) {
  // Large enough that the driver's flop heuristic goes parallel (>=1.5e6).
  const std::int64_t m = 250, n = 96, k = 64;
  const Tensor a = random_tensor(Shape{m, k}, 31);
  const Tensor b = random_tensor(Shape{k, n}, 32);
  const Tensor c0 = random_tensor(Shape{m, n}, 33);

  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor baseline = c0;
    {
      ThreadGuard threads(1);
      gemm(m, n, k, 1.25f, a.data(), b.data(), 0.5f, baseline.data());
    }
    for (const int workers : {2, 3, 5, 8}) {
      ThreadGuard threads(workers);
      Tensor c = c0;
      gemm(m, n, k, 1.25f, a.data(), b.data(), 0.5f, c.data());
      EXPECT_EQ(0, std::memcmp(baseline.data(), c.data(),
                               static_cast<std::size_t>(m * n) * sizeof(float)))
          << "level=" << kernels::kernel_level_name(level) << " workers=" << workers;
    }
  }
}

TEST(GemmKernelLevels, ScalarAndAvx2AgreeWithinTolerance) {
  if (!kernels::avx2_available()) GTEST_SKIP() << "no AVX2+FMA on this host/build";
  const std::int64_t m = 57, n = 83, k = 301;
  const Tensor a = random_tensor(Shape{m, k}, 41);
  const Tensor b = random_tensor(Shape{k, n}, 42);
  Tensor c_scalar(Shape{m, n});
  Tensor c_avx2(Shape{m, n});
  {
    LevelGuard guard(KernelLevel::kScalar);
    gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_scalar.data());
  }
  {
    LevelGuard guard(KernelLevel::kAvx2);
    gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c_avx2.data());
  }
  EXPECT_TRUE(c_scalar.allclose(c_avx2, 1e-3f, 1e-3f));
}

TEST(KernelDispatch, StrictEnvParseThrowsOnUnknownLevel) {
  // parse_kernel_env_strict is what the cached FTPIM_KERNEL resolution uses:
  // unset/empty keeps the fallback, known names resolve ("avx2" only when
  // the host can run it), anything else is a typo and must throw instead of
  // silently running the host's best kernel.
  EXPECT_EQ(kernels::parse_kernel_env_strict(nullptr, KernelLevel::kScalar),
            KernelLevel::kScalar);
  EXPECT_EQ(kernels::parse_kernel_env_strict("", KernelLevel::kScalar), KernelLevel::kScalar);
  EXPECT_EQ(kernels::parse_kernel_env_strict("", KernelLevel::kAvx2), KernelLevel::kAvx2);
  EXPECT_EQ(kernels::parse_kernel_env_strict("scalar", KernelLevel::kAvx2),
            KernelLevel::kScalar);
  const KernelLevel want =
      kernels::avx2_available() ? KernelLevel::kAvx2 : KernelLevel::kScalar;
  EXPECT_EQ(kernels::parse_kernel_env_strict("avx2", KernelLevel::kScalar), want);
  for (const char* bad : {"bogus", "AVX2", "scalar ", "sse", "avx512"}) {
    EXPECT_THROW((void)kernels::parse_kernel_env_strict(bad, KernelLevel::kScalar),
                 ContractViolation)
        << bad;
  }
}

TEST(KernelDispatch, OverrideNeverSelectsUnrunnableLevel) {
  {
    LevelGuard guard(KernelLevel::kAvx2);
    const KernelLevel active = kernels::active_kernel_level();
    if (kernels::avx2_available()) {
      EXPECT_EQ(active, KernelLevel::kAvx2);
    } else {
      EXPECT_EQ(active, KernelLevel::kScalar);
    }
  }
  LevelGuard guard(KernelLevel::kScalar);
  EXPECT_EQ(kernels::active_kernel_level(), KernelLevel::kScalar);
}

TEST(KernelDispatch, LevelNames) {
  EXPECT_STREQ(kernels::kernel_level_name(KernelLevel::kScalar), "scalar");
  EXPECT_STREQ(kernels::kernel_level_name(KernelLevel::kAvx2), "avx2");
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const char* what, int workers) {
  ASSERT_EQ(a.numel(), b.numel());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<std::size_t>(a.numel()) * sizeof(float)))
      << what << " differs between 1 worker and " << workers << " workers";
}

// ---------------------------------------------------------------------------
// Fused conv path: correctness vs the explicit im2col reference.
// ---------------------------------------------------------------------------

ConvGeometry test_geom() {
  return ConvGeometry{.in_c = 3,
                      .in_h = 11,
                      .in_w = 9,
                      .kernel_h = 3,
                      .kernel_w = 3,
                      .stride_h = 2,
                      .stride_w = 1,
                      .pad_h = 1,
                      .pad_w = 1};
}

TEST(ConvKernelCorrectness, ForwardMatchesIm2colReference) {
  const ConvGeometry g = test_geom();
  const std::int64_t out_c = 7;
  const Tensor image = random_tensor(Shape{g.in_c, g.in_h, g.in_w}, 51);
  const Tensor weight = random_tensor(Shape{out_c, g.col_rows()}, 52);

  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()), 0.0f);
  im2col(image.data(), g, col.data());
  Tensor ref(Shape{out_c, g.col_cols()});
  naive_gemm(out_c, g.col_cols(), g.col_rows(), 1.0f, weight.data(), col.data(), 0.0f,
             ref.data());

  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor out(Shape{out_c, g.col_cols()});
    kernels::conv_forward_packed(g, weight.data(), out_c, image.data(), out.data());
    EXPECT_TRUE(out.allclose(ref, 1e-3f, 1e-3f))
        << "level=" << kernels::kernel_level_name(level);
  }
}

TEST(ConvKernelCorrectness, GradWeightMatchesIm2colReference) {
  const ConvGeometry g = test_geom();
  const std::int64_t out_c = 7;
  const Tensor image = random_tensor(Shape{g.in_c, g.in_h, g.in_w}, 53);
  const Tensor dout = random_tensor(Shape{out_c, g.col_cols()}, 54);

  std::vector<float> col(static_cast<std::size_t>(g.col_rows() * g.col_cols()), 0.0f);
  im2col(image.data(), g, col.data());
  // dW[o, r] = sum_p dout[o, p] * col[r, p]
  Tensor ref(Shape{out_c, g.col_rows()});
  naive_gemm_bt(out_c, g.col_rows(), g.col_cols(), 1.0f, dout.data(), col.data(), 0.0f,
                ref.data());

  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor dw(Shape{out_c, g.col_rows()});
    kernels::conv_grad_weight_packed(g, dout.data(), out_c, image.data(), dw.data());
    EXPECT_TRUE(dw.allclose(ref, 1e-3f, 1e-3f))
        << "level=" << kernels::kernel_level_name(level);
  }
}

TEST(ConvKernelCorrectness, GradInputMatchesIm2colReference) {
  const ConvGeometry g = test_geom();
  const std::int64_t out_c = 7;
  const Tensor weight = random_tensor(Shape{out_c, g.col_rows()}, 55);
  const Tensor dout = random_tensor(Shape{out_c, g.col_cols()}, 56);

  // dcol = W^T * dY, then col2im.
  std::vector<float> dcol(static_cast<std::size_t>(g.col_rows() * g.col_cols()), 0.0f);
  naive_gemm_at(g.col_rows(), g.col_cols(), out_c, 1.0f, weight.data(), dout.data(), 0.0f,
                dcol.data());
  Tensor ref(Shape{g.in_c, g.in_h, g.in_w});
  col2im(dcol.data(), g, ref.data());

  for (const KernelLevel level : runnable_levels()) {
    LevelGuard guard(level);
    Tensor dx(Shape{g.in_c, g.in_h, g.in_w});
    kernels::conv_grad_input_packed(g, weight.data(), out_c, dout.data(), dx.data());
    EXPECT_TRUE(dx.allclose(ref, 1e-3f, 1e-3f))
        << "level=" << kernels::kernel_level_name(level);
  }
}

// ---------------------------------------------------------------------------
// Row-segment im2col gather vs the per-element gather it replaced, over a
// seeded sweep of conv geometries: kernels 1/3/5, strides 1/2, pads 0/1/2,
// rectangular inputs, pixel counts off the 16-column panel grid, K past one
// kKC slab, several images per call (kIm2col) and unaligned block origins.
// ---------------------------------------------------------------------------

/// The per-element gather (the oracle): B(p, j) of either im2col layout.
float im2col_element(const ConvGeometry& g, const float* images, std::int64_t image_stride,
                     std::int64_t row, std::int64_t pixel) {
  const std::int64_t pixels = g.col_cols();
  const float* image = images + pixel / pixels * image_stride;
  pixel %= pixels;
  const std::int64_t khw = g.kernel_h * g.kernel_w;
  const std::int64_t c = row / khw;
  const std::int64_t kh = row % khw / g.kernel_w;
  const std::int64_t kw = row % g.kernel_w;
  const std::int64_t iy = pixel / g.out_w() * g.stride_h - g.pad_h + kh;
  const std::int64_t ix = pixel % g.out_w() * g.stride_w - g.pad_w + kw;
  const bool inside = iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w;
  return inside ? image[(c * g.in_h + iy) * g.in_w + ix] : 0.0f;
}

/// Packs B(p0:p0+kc, j0:j0+nc) element by element in the pack.hpp layout.
std::vector<float> oracle_pack(const kernels::PackBSource& src, std::int64_t p0, std::int64_t kc,
                               std::int64_t j0, std::int64_t nc) {
  constexpr std::int64_t kNR = 16;
  const std::int64_t panels = (nc + kNR - 1) / kNR;
  std::vector<float> out(static_cast<std::size_t>(panels * kc * kNR), 0.0f);
  const bool trans = src.layout == kernels::PackBSource::Layout::kIm2colTrans;
  for (std::int64_t p = 0; p < kc; ++p) {
    for (std::int64_t j = 0; j < nc; ++j) {
      const std::int64_t row = trans ? j0 + j : p0 + p;
      const std::int64_t pixel = trans ? p0 + p : j0 + j;
      out[static_cast<std::size_t>((j / kNR * kc + p) * kNR + j % kNR)] =
          im2col_element(*src.geom, src.data, src.ld, row, pixel);
    }
  }
  return out;
}

TEST(Im2colPackSweep, SegmentGatherMatchesPerElementGather) {
  constexpr std::int64_t kNR = 16;
  Rng rng(0x5e9);
  const std::int64_t kernels_[] = {1, 3, 5};
  int geometries = 0, panels_checked = 0;
  bool crossed_kc = false, off_grid = false;
  while (geometries < 240) {
    const std::int64_t k = kernels_[rng.uniform_int(3)];
    // Every eighth geometry is wide enough in channels for K to pass kKC.
    const std::uint64_t max_c = geometries % 8 == 0 ? 40 : 6;
    ConvGeometry g{.in_c = 1 + static_cast<std::int64_t>(rng.uniform_int(max_c)),
                   .in_h = 1 + static_cast<std::int64_t>(rng.uniform_int(13)),
                   .in_w = 1 + static_cast<std::int64_t>(rng.uniform_int(13)),
                   .kernel_h = k,
                   .kernel_w = k,
                   .stride_h = 1 + static_cast<std::int64_t>(rng.uniform_int(2)),
                   .stride_w = 1 + static_cast<std::int64_t>(rng.uniform_int(2)),
                   .pad_h = static_cast<std::int64_t>(rng.uniform_int(3)),
                   .pad_w = static_cast<std::int64_t>(rng.uniform_int(3))};
    if (g.in_h + 2 * g.pad_h < k || g.in_w + 2 * g.pad_w < k) continue;
    ++geometries;
    const std::int64_t images = 1 + static_cast<std::int64_t>(rng.uniform_int(3));
    const std::int64_t image_stride = g.in_c * g.in_h * g.in_w;
    const Tensor data = random_tensor(Shape{images, g.in_c, g.in_h, g.in_w}, 700 + geometries);
    const std::int64_t rows = g.col_rows();
    const std::int64_t pixels = g.col_cols();
    crossed_kc |= rows > 256;
    off_grid |= pixels % kNR != 0;

    const kernels::PackBSource fwd{data.data(), image_stride, &g,
                                   kernels::PackBSource::Layout::kIm2col};
    const kernels::PackBSource dw{data.data(), 0, &g, kernels::PackBSource::Layout::kIm2colTrans};
    // (source, K extent, N extent): forward spans every image, dW one.
    const struct {
      const kernels::PackBSource* src;
      std::int64_t k_extent, n_extent;
    } layouts[] = {{&fwd, rows, images * pixels}, {&dw, pixels, rows}};
    for (const auto& l : layouts) {
      // Whole-slab blocks as the driver cuts them, plus one block at a
      // random unaligned origin.
      std::vector<std::array<std::int64_t, 4>> blocks;
      for (std::int64_t p0 = 0; p0 < l.k_extent; p0 += 256) {
        blocks.push_back({p0, std::min<std::int64_t>(256, l.k_extent - p0), 0, l.n_extent});
      }
      const std::int64_t p0 = static_cast<std::int64_t>(rng.uniform_int(
          static_cast<std::uint64_t>(l.k_extent)));
      const std::int64_t j0 = static_cast<std::int64_t>(rng.uniform_int(
          static_cast<std::uint64_t>(l.n_extent)));
      blocks.push_back({p0, l.k_extent - p0, j0, l.n_extent - j0});
      for (const auto& [bp0, kc, bj0, nc] : blocks) {
        const std::vector<float> want = oracle_pack(*l.src, bp0, kc, bj0, nc);
        std::vector<float> got(want.size(), -1.0f);
        kernels::pack_b_block(*l.src, bp0, kc, bj0, nc, got.data());
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(), want.size() * sizeof(float)))
            << (l.src == &fwd ? "kIm2col" : "kIm2colTrans") << " in_c=" << g.in_c
            << " in=" << g.in_h << "x" << g.in_w << " k=" << k << " stride=" << g.stride_h
            << "," << g.stride_w << " pad=" << g.pad_h << "," << g.pad_w
            << " images=" << images << " block p0=" << bp0 << " kc=" << kc << " j0=" << bj0
            << " nc=" << nc;
        ++panels_checked;
      }
    }
  }
  EXPECT_TRUE(crossed_kc);
  EXPECT_TRUE(off_grid);
  EXPECT_GT(panels_checked, 2 * geometries);
}

// A conv lowered over several images in one GEMM, with and without an
// epilogue, is bit-identical to one call per image followed by the
// epilogue's arithmetic — at every kernel level.
TEST(ConvKernelBatch, BatchWideMatchesPerImageBitForBit) {
  const ConvGeometry geoms[] = {
      {.in_c = 3, .in_h = 16, .in_w = 16, .kernel_h = 3, .kernel_w = 3, .stride_h = 1,
       .stride_w = 1, .pad_h = 1, .pad_w = 1},
      {.in_c = 5, .in_h = 7, .in_w = 9, .kernel_h = 3, .kernel_w = 3, .stride_h = 2,
       .stride_w = 1, .pad_h = 1, .pad_w = 1},  // 4x9 = 36 pixels: tiles straddle images
      {.in_c = 32, .in_h = 4, .in_w = 4, .kernel_h = 3, .kernel_w = 3, .stride_h = 1,
       .stride_w = 1, .pad_h = 1, .pad_w = 1},  // K = 288 > kKC
  };
  const std::int64_t out_c = 13;
  const std::int64_t images = 5;
  for (const ConvGeometry& g : geoms) {
    const std::int64_t in_plane = g.in_c * g.in_h * g.in_w;
    const std::int64_t out_plane = out_c * g.col_cols();
    const Tensor x = random_tensor(Shape{images, in_plane}, 81);
    const Tensor w = random_tensor(Shape{out_c, g.col_rows()}, 82);
    const Tensor bias = random_tensor(Shape{out_c}, 83);
    const Tensor scale = random_tensor(Shape{out_c}, 84);
    const Tensor shift = random_tensor(Shape{out_c}, 85);
    const kernels::RowEpilogue epi{.bias = bias.data(), .scale = scale.data(),
                                   .shift = shift.data(), .relu = true};
    for (const KernelLevel level : runnable_levels()) {
      LevelGuard guard(level);
      Tensor per_image(Shape{images, out_plane});
      for (std::int64_t i = 0; i < images; ++i) {
        kernels::conv_forward_packed(g, w.data(), out_c, x.data() + i * in_plane,
                                     per_image.data() + i * out_plane);
      }
      Tensor batched(Shape{images, out_plane});
      kernels::conv_forward_packed(g, w.data(), out_c, x.data(), batched.data(), images);
      expect_bitwise_equal(per_image, batched, "batch-wide conv", 1);

      for (std::int64_t i = 0; i < images * out_c; ++i) {
        const std::int64_t c = i % out_c;
        float* row = per_image.data() + i * g.col_cols();
        for (std::int64_t p = 0; p < g.col_cols(); ++p) {
          const float v = scale[c] * (row[p] + bias[c]) + shift[c];
          row[p] = v > 0.0f ? v : 0.0f;
        }
      }
      Tensor fused(Shape{images, out_plane});
      kernels::conv_forward_packed(g, w.data(), out_c, x.data(), fused.data(), images, &epi);
      expect_bitwise_equal(per_image, fused, "fused epilogue", 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Conv2d module: forward and backward bit-identical across worker counts at
// the ambient dispatch level (so the CI scalar leg covers scalar, the
// default leg covers AVX2). Backward keeps one dW/db partial per running
// worker and runs its 16 reduction slots in waves: 16 and more images fill
// every slot, 5 leave some empty, and 3 or 5 workers leave a short last wave.
// ---------------------------------------------------------------------------

struct ConvRun {
  Tensor out, grad_input, grad_weight, grad_bias;
};

ConvRun run_conv(int workers, std::int64_t batch) {
  ThreadGuard threads(workers);
  Rng rng(42);
  Conv2d conv(3, 8, 3, 1, 1, rng, /*with_bias=*/true);
  const Tensor x = random_tensor(Shape{batch, 3, 11, 9}, 61);
  ConvRun r;
  r.out = conv.forward(x, /*training=*/true);
  const Tensor dy = random_tensor(r.out.shape(), 62);
  r.grad_input = conv.backward(dy);
  std::vector<Param*> params;
  conv.collect_params("", params);
  r.grad_weight = params[0]->grad;
  r.grad_bias = params[1]->grad;
  return r;
}

TEST(ConvKernelDeterminism, ForwardBackwardBitIdenticalAcrossThreadCounts) {
  for (const std::int64_t batch : {5, 16, 21}) {
    SCOPED_TRACE(::testing::Message() << "batch " << batch);
    const ConvRun baseline = run_conv(1, batch);
    for (const int workers : {2, 3, 5, 8}) {
      const ConvRun r = run_conv(workers, batch);
      expect_bitwise_equal(baseline.out, r.out, "forward output", workers);
      expect_bitwise_equal(baseline.grad_input, r.grad_input, "grad_input", workers);
      expect_bitwise_equal(baseline.grad_weight, r.grad_weight, "grad_weight", workers);
      expect_bitwise_equal(baseline.grad_bias, r.grad_bias, "grad_bias", workers);
    }
  }
}

}  // namespace
}  // namespace ftpim
