// Panel packing for the packed GEMM backend.
//
// pack_a_block / pack_b_block copy a cache block of the logical operands
// into micro-kernel order:
//
//   A~  kMR-row panels, column-major within a panel:
//         dst[(ip*kc + p)*kMR + r] = alpha * A(i0 + ip*kMR + r, p0 + p)
//   B~  kNR-column panels, row-major within a panel:
//         dst[(jp*kc + p)*kNR + j] = B(p0 + p, j0 + jp*kNR + j)
//
// Rows/columns beyond the operand edge are zero-filled so the micro-kernel
// always runs a full tile. Transposes are absorbed here (the micro-kernel
// never knows), and so is im2col: the kIm2col / kIm2colTrans layouts gather
// convolution patches straight from the NCHW image, which is how Conv2d
// runs without ever materializing the [C*kh*kw, oh*ow] patch matrix.
#pragma once

#include <cstdint>

#include "src/tensor/im2col.hpp"

namespace ftpim::kernels {

/// Logical A operand: element A(i, p), i in [0,m), p in [0,k).
struct PackASource {
  enum class Layout {
    kRowMajor,    ///< A(i,p) = data[i*ld + p]        (data is [m,k], ld >= k)
    kTransposed,  ///< A(i,p) = data[p*ld + i]        (data is [k,m], ld >= m)
  };
  const float* data = nullptr;
  std::int64_t ld = 0;
  Layout layout = Layout::kRowMajor;
};

/// Logical B operand: element B(p, j), p in [0,k), j in [0,n).
struct PackBSource {
  enum class Layout {
    kRowMajor,     ///< B(p,j) = data[p*ld + j]       (data is [k,n], ld >= n)
    kTransposed,   ///< B(p,j) = data[j*ld + p]       (data is [n,k], ld >= k)
    kIm2col,       ///< B(p,j) = patch(row=p, pixel=j % P) of image j / P,
                   ///< P = oh*ow (forward; one call may span a batch)
    kIm2colTrans,  ///< B(p,j) = patch(row=j, pixel=p) of one image (dW)
  };
  const float* data = nullptr;         ///< matrix data, or the first NCHW image
  std::int64_t ld = 0;                 ///< kIm2col: floats between images;
                                       ///< unused by kIm2colTrans
  const ConvGeometry* geom = nullptr;  ///< required by the im2col layouts
  Layout layout = Layout::kRowMajor;
};

/// Packs A(i0:i0+mc, p0:p0+kc), folding alpha, into ceil(mc/kMR) panels.
void pack_a_block(const PackASource& src, std::int64_t i0, std::int64_t mc, std::int64_t p0,
                  std::int64_t kc, float alpha, float* dst);

/// Packs B(p0:p0+kc, j0:j0+nc) into ceil(nc/kNR) panels.
void pack_b_block(const PackBSource& src, std::int64_t p0, std::int64_t kc, std::int64_t j0,
                  std::int64_t nc, float* dst);

}  // namespace ftpim::kernels
