// Convolution entry points over the packed GEMM backend.
//
// None of them materializes the full [C*kh*kw, oh*ow] im2col patch matrix:
//   - forward and dW gather patches inside pack_b_block (kIm2col /
//     kIm2colTrans layouts), so the patch matrix exists only as transient
//     KC x NR panels in the per-thread arena;
//   - dX blocks over pixel panels: a [col_rows, tile] column-gradient slab is
//     computed per panel and scattered with col2im_range before the next.
//
// Forward lowers a contiguous range of images as GEMMs over several images
// at once (N = images * pixels, whole images, up to 128 columns per call),
// so the weights are packed once per K block per call, not per image; each
// output element still accumulates its K slabs in the same order, so the
// result is bit-identical to one call per image. dW and dX run per
// image. Callers run these under a batch-level parallel loop, where the
// nested GEMM degrades to serial — results are then independent of the
// batch partition, which is what makes Conv2d forward and backward
// bit-identical across FTPIM_THREADS.
#pragma once

#include <cstdint>

#include "src/tensor/im2col.hpp"
#include "src/tensor/kernels/gemm_driver.hpp"

namespace ftpim::kernels {

/// out[img, out_c, oh*ow] = epilogue(weight[out_c, col_rows] * patches(img))
/// for the `images` consecutive NCHW images at `image` (one [C,H,W] block
/// each), written as consecutive [out_c, oh*ow] blocks. epilogue may be null.
void conv_forward_packed(const ConvGeometry& g, const float* weight, std::int64_t out_c,
                         const float* image, float* out, std::int64_t images = 1,
                         const RowEpilogue* epilogue = nullptr);

/// dw[out_c, col_rows] += dout[out_c, oh*ow] * patches(image)^T.
void conv_grad_weight_packed(const ConvGeometry& g, const float* dout, std::int64_t out_c,
                             const float* image, float* dw);

/// dx[C,H,W] += col2im(weight^T * dout), pixel-panel blocked. The caller
/// must pass a zeroed (or accumulation-target) dx.
void conv_grad_input_packed(const ConvGeometry& g, const float* weight, std::int64_t out_c,
                            const float* dout, float* dx);

}  // namespace ftpim::kernels
