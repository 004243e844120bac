#include "src/nn/activations.hpp"

#include "src/common/check.hpp"

#include <cmath>

#include "src/tensor/select.hpp"

namespace ftpim {

Tensor ReLU::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* src = input.data();
  float* dst = out.data();
  const std::int64_t n = input.numel();
  map_elems(src, dst, n, [](float x) { return relu_select(x); });
  if (training) {
    cached_mask_.resize(static_cast<std::size_t>(n));
    std::uint8_t* mask = cached_mask_.data();
    std::int64_t i = 0;
    for (; i + kSelectBlock <= n; i += kSelectBlock) {
      for (std::int64_t j = 0; j < kSelectBlock; ++j) {
        mask[i + j] = static_cast<std::uint8_t>(src[i + j] > 0.0f);
      }
    }
    for (; i < n; ++i) mask[i] = static_cast<std::uint8_t>(src[i] > 0.0f);
  }
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  const std::vector<std::uint8_t> mask = std::move(cached_mask_);  // freed on return
  FTPIM_CHECK(!mask.empty(), "ReLU::backward without training forward");
  FTPIM_CHECK(grad_output.numel() == static_cast<std::int64_t>(mask.size()),
              "ReLU::backward: grad size mismatch");
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const std::uint8_t* m = mask.data();
  float* dx = grad_input.data();
  // A product, not a select, so -0.0 and NaN gradients propagate exactly.
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) dx[i] = dy[i] * static_cast<float>(m[i]);
  return grad_input;
}

std::unique_ptr<Module> ReLU::clone() const { return std::make_unique<ReLU>(); }

Tensor LeakyReLU::forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  Tensor out(input.shape());
  const float* src = input.data();
  float* dst = out.data();
  const float slope = slope_;
  map_elems(src, dst, input.numel(),
            [slope](float x) { return select_bits(x > 0.0f, x, slope * x); });
  return out;
}

Tensor LeakyReLU::backward(const Tensor& grad_output) {
  const Tensor input = std::move(cached_input_);  // freed on return
  FTPIM_CHECK(!input.empty(), "LeakyReLU::backward without training forward");
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* x = input.data();
  float* dx = grad_input.data();
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    dx[i] = select_bits(x[i] > 0.0f, dy[i], slope_ * dy[i]);
  }
  return grad_input;
}

std::unique_ptr<Module> LeakyReLU::clone() const { return std::make_unique<LeakyReLU>(slope_); }

Tensor Tanh::forward(const Tensor& input, bool training) {
  Tensor out(input.shape());
  const float* src = input.data();
  float* dst = out.data();
  for (std::int64_t i = 0; i < input.numel(); ++i) dst[i] = std::tanh(src[i]);
  if (training) cached_output_ = out;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  const Tensor output = std::move(cached_output_);  // freed on return
  FTPIM_CHECK(!output.empty(), "Tanh::backward without training forward");
  Tensor grad_input(grad_output.shape());
  const float* dy = grad_output.data();
  const float* y = output.data();
  float* dx = grad_input.data();
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) dx[i] = dy[i] * (1.0f - y[i] * y[i]);
  return grad_input;
}

std::unique_ptr<Module> Tanh::clone() const { return std::make_unique<Tanh>(); }

}  // namespace ftpim
