#include "src/nn/residual.hpp"

#include "src/common/check.hpp"
#include "src/nn/activations.hpp"
#include "src/tensor/select.hpp"

namespace ftpim {

ResidualBlock::ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                             std::int64_t stride, Rng& rng)
    : in_channels_(in_channels), out_channels_(out_channels), stride_(stride) {
  FTPIM_CHECK(!(stride != 1 && stride != 2), "ResidualBlock: stride must be 1 or 2");
  FTPIM_CHECK(!(stride == 1 && in_channels != out_channels), "ResidualBlock: channel change requires stride 2 (option A)");
  main_.emplace<Conv2d>(in_channels, out_channels, 3, stride, 1, rng, /*with_bias=*/false);
  main_.emplace<BatchNorm2d>(out_channels);
  main_.emplace<ReLU>();
  main_.emplace<Conv2d>(out_channels, out_channels, 3, 1, 1, rng, /*with_bias=*/false);
  main_.emplace<BatchNorm2d>(out_channels);
}

ResidualBlock::ResidualBlock(const ResidualBlock& other)
    : in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      stride_(other.stride_),
      main_(other.main_) {}

std::unique_ptr<Module> ResidualBlock::clone() const {
  return std::unique_ptr<Module>(new ResidualBlock(*this));
}

bool ResidualBlock::identity_shortcut() const {
  return stride_ == 1 && in_channels_ == out_channels_;
}

Tensor ResidualBlock::shortcut_forward(const Tensor& x) const {
  // Option A: spatial subsample by stride, zero-pad new channels.
  const std::int64_t n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = (h + stride_ - 1) / stride_;
  const std::int64_t ow = (w + stride_ - 1) / stride_;
  Tensor out(Shape{n, out_channels_, oh, ow});
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < in_channels_; ++c) {
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          out.at(i, c, y, xx) = x.at(i, c, y * stride_, xx * stride_);
        }
      }
    }
  }
  return out;
}

Tensor ResidualBlock::shortcut_backward(const Tensor& grad, const Shape& in_shape) const {
  const std::int64_t n = in_shape[0], h = in_shape[2], w = in_shape[3];
  Tensor out(Shape{n, in_channels_, h, w});
  const std::int64_t oh = grad.dim(2), ow = grad.dim(3);
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t c = 0; c < in_channels_; ++c) {  // padded channels carry no gradient
      for (std::int64_t y = 0; y < oh; ++y) {
        for (std::int64_t xx = 0; xx < ow; ++xx) {
          out.at(i, c, y * stride_, xx * stride_) = grad.at(i, c, y, xx);
        }
      }
    }
  }
  return out;
}

Tensor ResidualBlock::forward(const Tensor& input, bool training) {
  Tensor main_out = main_.forward(input, training);
  // An identity shortcut reads the input in place.
  Tensor projected;
  if (!identity_shortcut()) projected = shortcut_forward(input);
  const Tensor& short_out = identity_shortcut() ? input : projected;
  if (main_out.shape() != short_out.shape()) {
    throw ContractViolation("ResidualBlock: main/shortcut shape mismatch " +
                           shape_to_string(main_out.shape()) + " vs " +
                           shape_to_string(short_out.shape()));
  }
  zip_elems(main_out.data(), short_out.data(), main_out.numel(),
            [](float m, float s) { return relu_select(m + s); });
  return main_out;
}

Tensor ResidualBlock::backward(const Tensor& grad_output) {
  // The main-path output m, rebuilt from bn_b's cache, and the block input
  // conv_a caches give the sum the forward's ReLU saw, bit for bit.
  Tensor grad_sum = static_cast<const BatchNorm2d&>(main_.child(4)).cached_output(false);
  const Tensor& input = static_cast<const Conv2d&>(main_.child(0)).cached_input();
  FTPIM_CHECK(grad_output.numel() == grad_sum.numel() && !input.empty(),
              "ResidualBlock::backward: grad size mismatch");
  const Shape in_shape = input.shape();  // main_.backward frees conv_a's cache
  Tensor projected;
  if (!identity_shortcut()) projected = shortcut_forward(input);
  const float* s = identity_shortcut() ? input.data() : projected.data();
  const float* dy = grad_output.data();
  float* ds = grad_sum.data();
  // A product, not a select, so -0.0 and NaN gradients propagate exactly.
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) {
    ds[i] = dy[i] * static_cast<float>(ds[i] + s[i] > 0.0f);
  }
  projected = Tensor();

  Tensor grad_main = main_.backward(grad_sum);
  // An identity shortcut passes grad_sum through; read it in place.
  if (!identity_shortcut()) projected = shortcut_backward(grad_sum, in_shape);
  const Tensor& grad_short = identity_shortcut() ? grad_sum : projected;
  FTPIM_CHECK(!(grad_main.shape() != grad_short.shape()), "ResidualBlock::backward: gradient shape mismatch");
  float* pa = grad_main.data();
  const float* pb = grad_short.data();
  for (std::int64_t i = 0; i < grad_main.numel(); ++i) pa[i] += pb[i];
  return grad_main;
}

void ResidualBlock::collect_params(const std::string& prefix, std::vector<Param*>& out) {
  main_.collect_params(prefix + "main.", out);
}

void ResidualBlock::collect_const_params(std::vector<const Param*>& out) const {
  main_.collect_const_params(out);
}

void ResidualBlock::collect_buffers(const std::string& prefix,
                                    std::vector<std::pair<std::string, Tensor*>>& out) {
  main_.collect_buffers(prefix + "main.", out);
}

void ResidualBlock::collect_modules(std::vector<Module*>& out) {
  out.push_back(this);
  main_.collect_modules(out);
}

}  // namespace ftpim
