#include "src/tensor/kernels/conv_kernels.hpp"

#include <algorithm>

#include "src/common/annotations.hpp"
#include "src/tensor/kernels/gemm_driver.hpp"
#include "src/tensor/kernels/pack_arena.hpp"

namespace ftpim::kernels {
namespace {

/// Pixel-panel width for the dX path: bounds the transient column-gradient
/// slab at col_rows * kPixelTile floats per thread.
constexpr std::int64_t kPixelTile = 512;

/// Output columns per forward GEMM call, in whole images: one call already
/// fills the 16-column micro-panels eight times over, and the thread's
/// packed-B buffer stays at K x max(pixels, kForwardCols) floats.
constexpr std::int64_t kForwardCols = 128;

/// Scatters dcol[col_rows, npix] (pixels pix0..pix0+npix of the logical
/// column-gradient matrix) back into the [C,H,W] image gradient.
void col2im_range(const float* dcol, const ConvGeometry& g, std::int64_t pix0,
                  std::int64_t npix, float* dx) {
  const std::int64_t ow = g.out_w();
  const std::int64_t khw = g.kernel_h * g.kernel_w;
  const std::int64_t col_rows = g.col_rows();
  for (std::int64_t r = 0; r < col_rows; ++r) {
    const std::int64_t c = r / khw;
    const std::int64_t rem = r % khw;
    const std::int64_t kh = rem / g.kernel_w;
    const std::int64_t kw = rem % g.kernel_w;
    float* plane = dx + c * g.in_h * g.in_w;
    const float* src = dcol + r * npix;
    std::int64_t y = pix0 / ow;
    std::int64_t x = pix0 % ow;
    for (std::int64_t p = 0; p < npix; ++p) {
      const std::int64_t iy = y * g.stride_h - g.pad_h + kh;
      const std::int64_t ix = x * g.stride_w - g.pad_w + kw;
      if (iy >= 0 && iy < g.in_h && ix >= 0 && ix < g.in_w) {
        plane[iy * g.in_w + ix] += src[p];
      }
      if (++x == ow) {
        x = 0;
        ++y;
      }
    }
  }
}

}  // namespace

FTPIM_HOT void conv_forward_packed(const ConvGeometry& g, const float* weight, std::int64_t out_c,
                                   const float* image, float* out, std::int64_t images,
                                   const RowEpilogue* epilogue) {
  const std::int64_t pixels = g.col_cols();
  const std::int64_t in_plane = g.in_c * g.in_h * g.in_w;
  const std::int64_t group = std::max<std::int64_t>(1, kForwardCols / pixels);
  const PackASource a{weight, g.col_rows(), PackASource::Layout::kRowMajor};
  for (std::int64_t i = 0; i < images; i += group) {
    const std::int64_t count = std::min(group, images - i);
    const PackBSource b{image + i * in_plane, in_plane, &g, PackBSource::Layout::kIm2col};
    const GemmOut c{.data = out + i * out_c * pixels,
                    .ld = pixels,
                    .group_cols = pixels,
                    .group_stride = out_c * pixels,
                    .epilogue = epilogue};
    gemm_packed(out_c, count * pixels, g.col_rows(), 1.0f, a, b, 0.0f, c);
  }
}

FTPIM_HOT void conv_grad_weight_packed(const ConvGeometry& g, const float* dout,
                                       std::int64_t out_c, const float* image, float* dw) {
  const PackASource a{dout, g.col_cols(), PackASource::Layout::kRowMajor};
  const PackBSource b{image, 0, &g, PackBSource::Layout::kIm2colTrans};
  gemm_packed(out_c, g.col_rows(), g.col_cols(), 1.0f, a, b, 1.0f, dw, g.col_rows());
}

FTPIM_HOT void conv_grad_input_packed(const ConvGeometry& g, const float* weight,
                                      std::int64_t out_c, const float* dout, float* dx) {
  const std::int64_t col_rows = g.col_rows();
  const std::int64_t pixels = g.col_cols();
  PackArena& arena = PackArena::local();
  for (std::int64_t pix0 = 0; pix0 < pixels; pix0 += kPixelTile) {
    const std::int64_t npix = std::min<std::int64_t>(kPixelTile, pixels - pix0);
    float* dcol = arena.scratch_buffer(0, static_cast<std::size_t>(col_rows * npix));
    // dcol[col_rows, npix] = W^T[col_rows, out_c] * dY[:, pix0:pix0+npix]
    const PackASource a{weight, col_rows, PackASource::Layout::kTransposed};
    const PackBSource b{dout + pix0, pixels, nullptr, PackBSource::Layout::kRowMajor};
    gemm_packed(col_rows, npix, out_c, 1.0f, a, b, 0.0f, dcol, npix);
    col2im_range(dcol, g, pix0, npix, dx);
  }
}

}  // namespace ftpim::kernels
