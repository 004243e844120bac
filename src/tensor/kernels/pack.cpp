#include "src/tensor/kernels/pack.hpp"

#include <algorithm>

#include "src/common/annotations.hpp"
#include "src/common/check.hpp"
#include "src/tensor/kernels/kernel_params.hpp"

namespace ftpim::kernels {
namespace {

void pack_b_matrix(const PackBSource& src, std::int64_t p0, std::int64_t kc, std::int64_t j0,
                   std::int64_t nc, float* dst) {
  const std::int64_t panels = ceil_div(nc, kNR);
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    const std::int64_t cols = std::min<std::int64_t>(kNR, nc - jp * kNR);
    float* out = dst + jp * kc * kNR;
    if (src.layout == PackBSource::Layout::kRowMajor) {
      const float* base = src.data + p0 * src.ld + j0 + jp * kNR;
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* row = base + p * src.ld;
        float* o = out + p * kNR;
        for (std::int64_t j = 0; j < cols; ++j) o[j] = row[j];
        for (std::int64_t j = cols; j < kNR; ++j) o[j] = 0.0f;
      }
    } else {  // kTransposed: B(p,j) = data[j*ld + p]
      const float* base = src.data + (j0 + jp * kNR) * src.ld + p0;
      for (std::int64_t p = 0; p < kc; ++p) {
        float* o = out + p * kNR;
        for (std::int64_t j = 0; j < cols; ++j) o[j] = base[j * src.ld + p];
        for (std::int64_t j = cols; j < kNR; ++j) o[j] = 0.0f;
      }
    }
  }
}

// Output columns [lo, hi) of a row whose kernel tap kw reads inside the
// image; the columns before lo and from hi on read zero padding. Output
// column x reads image column x * stride_w - off, off = pad_w - kw.
struct TapSpan {
  std::int64_t lo = 0, hi = 0, off = 0;
};

TapSpan tap_span(const ConvGeometry& g, std::int64_t kw, std::int64_t ow) {
  const std::int64_t off = g.pad_w - kw;
  const std::int64_t lo = std::min(off > 0 ? ceil_div(off, g.stride_w) : 0, ow);
  const std::int64_t last = g.in_w - 1 + off;  // largest x * stride_w inside the row
  const std::int64_t hi = last < 0 ? 0 : last / g.stride_w + 1;
  return {lo, std::clamp(hi, lo, ow), off};
}

// Gathers output columns [x0, x0 + len) of one output row for one tap into
// o[0], o[os], ...: zeros, then the in-image run as a straight (stride 1) or
// strided copy, then zeros. `row` is the image row the tap reads, nullptr
// when that row is vertical padding.
FTPIM_HOT void gather_segment(const float* row, std::int64_t x0, std::int64_t len,
                              const TapSpan& span, std::int64_t stride_w, float* o,
                              std::int64_t os) {
  const std::int64_t x1 = x0 + len;
  if (row == nullptr) {
    for (std::int64_t t = 0; t < len; ++t) o[t * os] = 0.0f;
    return;
  }
  const std::int64_t a = std::clamp(span.lo, x0, x1);
  const std::int64_t b = std::clamp(span.hi, a, x1);
  for (std::int64_t x = x0; x < a; ++x) o[(x - x0) * os] = 0.0f;
  for (std::int64_t x = a; x < b; ++x) o[(x - x0) * os] = row[x * stride_w - span.off];
  for (std::int64_t x = b; x < x1; ++x) o[(x - x0) * os] = 0.0f;
}

// Forward-conv layout: B(p = patch row, j = output pixel), gathered straight
// from NCHW images (the fused-im2col half of the backend). Column j is pixel
// j % (oh*ow) of image j / (oh*ow), images src.ld floats apart, so one call
// can lower a whole batch. Each patch row is gathered one output-row segment
// at a time (a segment ends at the row's end or the panel's edge): the
// padding bounds are solved once per segment, not per element.
FTPIM_HOT void pack_b_im2col(const PackBSource& src, std::int64_t p0, std::int64_t kc,
                             std::int64_t j0, std::int64_t nc, float* dst) {
  const ConvGeometry& g = *src.geom;
  const std::int64_t oh = g.out_h();
  const std::int64_t ow = g.out_w();
  const std::int64_t pixels = oh * ow;
  const std::int64_t plane = g.in_h * g.in_w;
  const std::int64_t khw = g.kernel_h * g.kernel_w;
  const std::int64_t panels = ceil_div(nc, kNR);
  const std::int64_t last_cols = nc - (panels - 1) * kNR;
  const std::int64_t img0 = j0 / pixels;
  const std::int64_t y0 = j0 % pixels / ow;
  const std::int64_t x0 = j0 % pixels % ow;
  for (std::int64_t p = 0; p < kc; ++p) {
    const std::int64_t rp = p0 + p;
    const std::int64_t c = rp / khw;
    const std::int64_t kh = rp % khw / g.kernel_w;
    const TapSpan span = tap_span(g, rp % g.kernel_w, ow);
    std::int64_t img = img0, y = y0, x = x0;
    for (std::int64_t jj = 0; jj < nc;) {
      const std::int64_t lane = jj % kNR;
      const std::int64_t len = std::min({ow - x, kNR - lane, nc - jj});
      const std::int64_t iy = y * g.stride_h - g.pad_h + kh;
      const float* row = iy >= 0 && iy < g.in_h ? src.data + img * src.ld + c * plane + iy * g.in_w
                                                : nullptr;
      gather_segment(row, x, len, span, g.stride_w, dst + (jj / kNR * kc + p) * kNR + lane, 1);
      jj += len;
      x += len;
      if (x == ow) {
        x = 0;
        if (++y == oh) {
          y = 0;
          ++img;
        }
      }
    }
    float* tail = dst + ((panels - 1) * kc + p) * kNR;
    std::fill(tail + last_cols, tail + kNR, 0.0f);
  }
}

// dW layout: B(p = output pixel, j = patch row) of one image — the patch
// matrix used transposed, still gathered from the image with no intermediate
// buffer. Each patch row's pixels are gathered one output-row segment at a
// time into the panel's column (stride kNR).
FTPIM_HOT void pack_b_im2col_trans(const PackBSource& src, std::int64_t p0, std::int64_t kc,
                                   std::int64_t j0, std::int64_t nc, float* dst) {
  const ConvGeometry& g = *src.geom;
  const std::int64_t ow = g.out_w();
  const std::int64_t plane = g.in_h * g.in_w;
  const std::int64_t khw = g.kernel_h * g.kernel_w;
  const std::int64_t panels = ceil_div(nc, kNR);
  const std::int64_t y0 = p0 / ow;
  const std::int64_t x0 = p0 % ow;
  for (std::int64_t jp = 0; jp < panels; ++jp) {
    const std::int64_t cols = std::min<std::int64_t>(kNR, nc - jp * kNR);
    float* out = dst + jp * kc * kNR;
    for (std::int64_t j = 0; j < cols; ++j) {
      const std::int64_t rj = j0 + jp * kNR + j;
      const float* image_plane = src.data + rj / khw * plane;
      const std::int64_t kh = rj % khw / g.kernel_w;
      const TapSpan span = tap_span(g, rj % g.kernel_w, ow);
      std::int64_t y = y0, x = x0;
      for (std::int64_t p = 0; p < kc;) {
        const std::int64_t len = std::min(ow - x, kc - p);
        const std::int64_t iy = y * g.stride_h - g.pad_h + kh;
        const float* row = iy >= 0 && iy < g.in_h ? image_plane + iy * g.in_w : nullptr;
        gather_segment(row, x, len, span, g.stride_w, out + p * kNR + j, kNR);
        p += len;
        x += len;
        if (x == ow) {
          x = 0;
          ++y;
        }
      }
    }
    for (std::int64_t p = 0; p < kc; ++p) {
      std::fill(out + p * kNR + cols, out + (p + 1) * kNR, 0.0f);
    }
  }
}

}  // namespace

FTPIM_HOT void pack_a_block(const PackASource& src, std::int64_t i0, std::int64_t mc,
                            std::int64_t p0, std::int64_t kc, float alpha, float* dst) {
  FTPIM_DCHECK(src.data != nullptr);
  const std::int64_t panels = ceil_div(mc, kMR);
  for (std::int64_t ip = 0; ip < panels; ++ip) {
    const std::int64_t rows = std::min<std::int64_t>(kMR, mc - ip * kMR);
    float* out = dst + ip * kc * kMR;
    if (src.layout == PackASource::Layout::kRowMajor) {
      const float* base = src.data + (i0 + ip * kMR) * src.ld + p0;
      for (std::int64_t p = 0; p < kc; ++p) {
        float* o = out + p * kMR;
        for (std::int64_t r = 0; r < rows; ++r) o[r] = alpha * base[r * src.ld + p];
        for (std::int64_t r = rows; r < kMR; ++r) o[r] = 0.0f;
      }
    } else {  // kTransposed: A(i,p) = data[p*ld + i]
      const float* base = src.data + p0 * src.ld + i0 + ip * kMR;
      for (std::int64_t p = 0; p < kc; ++p) {
        const float* col = base + p * src.ld;
        float* o = out + p * kMR;
        for (std::int64_t r = 0; r < rows; ++r) o[r] = alpha * col[r];
        for (std::int64_t r = rows; r < kMR; ++r) o[r] = 0.0f;
      }
    }
  }
}

FTPIM_HOT void pack_b_block(const PackBSource& src, std::int64_t p0, std::int64_t kc,
                            std::int64_t j0, std::int64_t nc, float* dst) {
  FTPIM_DCHECK(src.data != nullptr);
  switch (src.layout) {
    case PackBSource::Layout::kRowMajor:
    case PackBSource::Layout::kTransposed:
      pack_b_matrix(src, p0, kc, j0, nc, dst);
      break;
    case PackBSource::Layout::kIm2col:
      FTPIM_DCHECK(src.geom != nullptr);
      pack_b_im2col(src, p0, kc, j0, nc, dst);
      break;
    case PackBSource::Layout::kIm2colTrans:
      FTPIM_DCHECK(src.geom != nullptr);
      pack_b_im2col_trans(src, p0, kc, j0, nc, dst);
      break;
  }
}

}  // namespace ftpim::kernels
