// Batch normalization over NCHW channels, with running statistics for eval.
#pragma once

#include <vector>

#include "src/nn/module.hpp"

namespace ftpim {

class BatchNorm2d final : public Module {
 public:
  explicit BatchNorm2d(std::int64_t channels, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& input, bool training) override;

  /// Training forward followed by a ReLU, written in place: the output is
  /// relu_select(gamma[c] * xhat + beta[c]), bit-identical to forward() and
  /// then ReLU::forward(), with the same cache as forward(). Sequential runs
  /// BatchNorm2d -> ReLU this way so the ReLU keeps no mask (see
  /// cached_output).
  Tensor forward_relu(const Tensor& input);

  /// Rebuilds the last training forward's output from the cache, with the
  /// forward's exact expression: gamma[c] * xhat + beta[c], through
  /// relu_select when `relu`. Bit-identical to what forward() (or, with
  /// `relu`, forward_relu()) returned as long as gamma and beta are
  /// unchanged; throws ContractViolation when there is no cache.
  [[nodiscard]] Tensor cached_output(bool relu) const;

  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<Param*>& out) override;
  void collect_const_params(std::vector<const Param*>& out) const override;
  void collect_buffers(const std::string& prefix,
                       std::vector<std::pair<std::string, Tensor*>>& out) override;
  /// Clones gamma/beta and the running statistics (the buffers eval-mode
  /// forward depends on); backward caches are dropped.
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "BatchNorm2d"; }

  [[nodiscard]] std::int64_t channels() const noexcept { return channels_; }

  /// Eval-mode forward as a per-channel affine y = scale[c] * x + shift[c],
  /// scale = gamma * inv_std and shift = beta - scale * running_mean. The
  /// eval forward and the fused conv epilogue both use exactly these values.
  void eval_affine(std::vector<float>& scale, std::vector<float>& shift) const;
  [[nodiscard]] const Tensor& running_mean() const noexcept { return running_mean_; }
  [[nodiscard]] const Tensor& running_var() const noexcept { return running_var_; }

 private:
  BatchNorm2d(const BatchNorm2d& other);

  /// forward() and forward_relu(); `relu` applies to a training forward only.
  Tensor run_forward(const Tensor& input, bool training, bool relu);

  std::int64_t channels_;
  float momentum_, eps_;
  Param gamma_, beta_;
  Tensor running_mean_, running_var_;
  // Backward caches: written by a training forward, freed by backward.
  Tensor cached_xhat_;     ///< normalized input, [N,C,H,W]
  Tensor cached_inv_std_;  ///< [C]
};

}  // namespace ftpim
