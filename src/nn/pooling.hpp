// Pooling layers and the NCHW->NC flatten used before the classifier head.
// A training forward records what backward needs (input shape, MaxPool's
// argmax tap); backward frees it.
#pragma once

#include <cstdint>
#include <vector>

#include "src/nn/module.hpp"

namespace ftpim {

/// Global average pooling: [N,C,H,W] -> [N,C].
class GlobalAvgPool final : public Module {
 public:
  GlobalAvgPool() = default;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "GlobalAvgPool"; }

 private:
  Shape cached_in_shape_;
};

/// Max pooling with square window/stride: [N,C,H,W] -> [N,C,H',W'].
/// The window holds at most 256 taps, so a training forward records each
/// output's argmax as one byte: its tap ky * window + kx.
class MaxPool2d final : public Module {
 public:
  MaxPool2d(std::int64_t window, std::int64_t stride);
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "MaxPool2d"; }

 private:
  std::int64_t window_, stride_;
  Shape cached_in_shape_;
  std::vector<std::uint8_t> cached_argmax_;  ///< window tap of each output's max
};

/// [N,C,H,W] -> [N, C*H*W].
class Flatten final : public Module {
 public:
  Flatten() = default;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Flatten"; }

 private:
  Shape cached_in_shape_;
};

}  // namespace ftpim
