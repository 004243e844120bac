// Residual block for CIFAR-style ResNets (He et al. 2016).
//
// main path: conv3x3(s) -> BN -> ReLU -> conv3x3(1) -> BN
// shortcut : identity, or "option A" when shape changes — stride-2
//            subsample plus zero-padded channels (parameter-free, as in the
//            original CIFAR ResNets; keeps all crossbar weights inside the
//            main path which simplifies fault-injection accounting).
// output   : ReLU(main + shortcut)
//
// Training caches nothing of the block's own: backward rebuilds the ReLU
// mask from the last BatchNorm2d's cache (the main-path output) and the
// block input, which the first Conv2d already caches.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/batchnorm2d.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/module.hpp"
#include "src/nn/sequential.hpp"

namespace ftpim {

class ResidualBlock final : public Module {
 public:
  ResidualBlock(std::int64_t in_channels, std::int64_t out_channels, std::int64_t stride,
                Rng& rng);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<Param*>& out) override;
  void collect_const_params(std::vector<const Param*>& out) const override;
  void collect_buffers(const std::string& prefix,
                       std::vector<std::pair<std::string, Tensor*>>& out) override;
  void collect_modules(std::vector<Module*>& out) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "ResidualBlock"; }

 private:
  ResidualBlock(const ResidualBlock& other);  ///< clone(): main path deep-copied

  /// True when the shortcut is the identity (stride 1, same channels); the
  /// block then reads its input (and, in backward, grad) in place.
  [[nodiscard]] bool identity_shortcut() const;
  /// Applies the option-A shortcut to x (a non-identity block only).
  [[nodiscard]] Tensor shortcut_forward(const Tensor& x) const;
  /// Backprop through the option-A shortcut of an input shaped `in_shape`.
  [[nodiscard]] Tensor shortcut_backward(const Tensor& grad, const Shape& in_shape) const;

  std::int64_t in_channels_, out_channels_, stride_;
  Sequential main_;  ///< conv_a, bn_a, ReLU, conv_b, bn_b
};

}  // namespace ftpim
