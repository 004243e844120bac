#include "src/nn/pooling.hpp"

#include "src/common/check.hpp"

#include <limits>

#include "src/tensor/select.hpp"

namespace ftpim {

Tensor GlobalAvgPool::forward(const Tensor& input, bool training) {
  FTPIM_CHECK(!(input.rank() != 4), "GlobalAvgPool: rank-4 input required");
  if (training) cached_in_shape_ = input.shape();
  const std::int64_t n = input.dim(0), c = input.dim(1), plane = input.dim(2) * input.dim(3);
  Tensor out(Shape{n, c});
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float* src = input.data() + (i * c + ch) * plane;
      double acc = 0.0;
      for (std::int64_t p = 0; p < plane; ++p) acc += src[p];
      out.at(i, ch) = static_cast<float>(acc) * inv;
    }
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_output) {
  const Shape in_shape = std::move(cached_in_shape_);
  FTPIM_CHECK(!in_shape.empty(), "GlobalAvgPool::backward without training forward");
  const std::int64_t n = in_shape[0], c = in_shape[1];
  const std::int64_t plane = in_shape[2] * in_shape[3];
  Tensor grad_input(in_shape);
  const float inv = 1.0f / static_cast<float>(plane);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = grad_output.at(i, ch) * inv;
      float* dst = grad_input.data() + (i * c + ch) * plane;
      for (std::int64_t p = 0; p < plane; ++p) dst[p] = g;
    }
  }
  return grad_input;
}

std::unique_ptr<Module> GlobalAvgPool::clone() const { return std::make_unique<GlobalAvgPool>(); }

MaxPool2d::MaxPool2d(std::int64_t window, std::int64_t stride) : window_(window), stride_(stride) {
  FTPIM_CHECK(!(window <= 0 || stride <= 0), "MaxPool2d: invalid geometry");
  FTPIM_CHECK(window * window <= 256, "MaxPool2d: a window holds at most 256 taps");
}

Tensor MaxPool2d::forward(const Tensor& input, bool training) {
  FTPIM_CHECK(!(input.rank() != 4), "MaxPool2d: rank-4 input required");
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2), w = input.dim(3);
  const std::int64_t oh = (h - window_) / stride_ + 1;
  const std::int64_t ow = (w - window_) / stride_ + 1;
  FTPIM_CHECK(!(oh <= 0 || ow <= 0), "MaxPool2d: output would be empty");
  Tensor out(Shape{n, c, oh, ow});
  std::uint8_t* argmax = nullptr;
  if (training) {
    cached_in_shape_ = input.shape();
    cached_argmax_.assign(static_cast<std::size_t>(n * c * oh * ow), 0);
    argmax = cached_argmax_.data();
  }
  // Running max: each output row keeps its best-so-far while the window taps
  // (ky, kx) sweep it in ascending order, with a strict `>` so NaNs are
  // skipped and ties keep the first (argmax-recorded) tap; a window with no
  // tap above -inf records tap 0. Without the argmax, `v > best ? v : best`
  // is exactly x86 MAXSS and GCC emits it: no branch, and faster than a
  // bit-mask select chain.
  for (std::int64_t plane_i = 0; plane_i < n * c; ++plane_i) {
    const float* plane = input.data() + plane_i * h * w;
    for (std::int64_t y = 0; y < oh; ++y) {
      const std::int64_t row0 = plane_i * oh * ow + y * ow;
      float* best = out.data() + row0;
      std::fill(best, best + ow, -std::numeric_limits<float>::infinity());
      for (std::int64_t ky = 0; ky < window_; ++ky) {
        for (std::int64_t kx = 0; kx < window_; ++kx) {
          const float* src = plane + (y * stride_ + ky) * w + kx;
          if (argmax == nullptr) {
            for (std::int64_t x = 0; x < ow; ++x) {
              const float v = src[x * stride_];
              best[x] = v > best[x] ? v : best[x];
            }
          } else {
            const auto tap = static_cast<std::uint8_t>(ky * window_ + kx);
            std::uint8_t* arg = argmax + row0;
            for (std::int64_t x = 0; x < ow; ++x) {
              const float v = src[x * stride_];
              const bool take = v > best[x];
              best[x] = select_bits(take, v, best[x]);
              arg[x] = take ? tap : arg[x];
            }
          }
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  // Both caches are freed when backward returns.
  const Shape in_shape = std::move(cached_in_shape_);
  const std::vector<std::uint8_t> argmax = std::move(cached_argmax_);
  FTPIM_CHECK(!in_shape.empty(), "MaxPool2d::backward without training forward");
  const std::int64_t n = in_shape[0], c = in_shape[1];
  const std::int64_t h = in_shape[2], w = in_shape[3];
  const std::int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  Tensor grad_input(in_shape);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      float* dst = grad_input.data() + (i * c + ch) * h * w;
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t x = 0; x < ow; ++x) {
          const std::int64_t tap =
              argmax[static_cast<std::size_t>(((i * c + ch) * oh + y) * ow + x)];
          const std::int64_t ky = tap / window_, kx = tap % window_;
          dst[(y * stride_ + ky) * w + x * stride_ + kx] += grad_output.at(i, ch, y, x);
        }
      }
    }
  }
  return grad_input;
}

std::unique_ptr<Module> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(window_, stride_);
}

Tensor Flatten::forward(const Tensor& input, bool training) {
  FTPIM_CHECK(!(input.rank() < 2), "Flatten: rank >= 2 required");
  if (training) cached_in_shape_ = input.shape();
  const std::int64_t n = input.dim(0);
  return input.reshaped(Shape{n, input.numel() / n});
}

Tensor Flatten::backward(const Tensor& grad_output) {
  const Shape in_shape = std::move(cached_in_shape_);
  FTPIM_CHECK(!in_shape.empty(), "Flatten::backward without training forward");
  return grad_output.reshaped(in_shape);
}

std::unique_ptr<Module> Flatten::clone() const { return std::make_unique<Flatten>(); }

}  // namespace ftpim
