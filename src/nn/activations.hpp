// Elementwise activations. Each caches what its backward needs during a
// training forward only; backward frees that cache.
#pragma once

#include <cstdint>
#include <vector>

#include "src/nn/module.hpp"

namespace ftpim {

class ReLU final : public Module {
 public:
  ReLU() = default;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "ReLU"; }

 private:
  std::vector<std::uint8_t> cached_mask_;  ///< 1 where input > 0
};

class LeakyReLU final : public Module {
 public:
  explicit LeakyReLU(float negative_slope = 0.01f) : slope_(negative_slope) {}
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "LeakyReLU"; }

 private:
  float slope_;
  Tensor cached_input_;  ///< sign of the input selects the slope
};

class Tanh final : public Module {
 public:
  Tanh() = default;
  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Tanh"; }

 private:
  Tensor cached_output_;  ///< tanh(x); the derivative is 1 - y^2
};

}  // namespace ftpim
