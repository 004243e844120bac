// Fully-connected layer: y = x W^T + b, x:[N,in], W:[out,in], b:[out].
//
// An installed MvmHook replaces the x W^T product during eval-mode forward
// (training and backward always use the float weights); see mvm_hook.hpp.
#pragma once

#include <memory>

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"
#include "src/nn/mvm_hook.hpp"

namespace ftpim {

class Linear final : public Module {
 public:
  /// Initializes with Kaiming-uniform weights and zero bias.
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng, bool with_bias = true);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<Param*>& out) override;
  void collect_const_params(std::vector<const Param*>& out) const override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Linear"; }

  [[nodiscard]] std::int64_t in_features() const noexcept { return in_features_; }
  [[nodiscard]] std::int64_t out_features() const noexcept { return out_features_; }
  [[nodiscard]] Param& weight() noexcept { return weight_; }
  [[nodiscard]] Param& bias() noexcept { return bias_; }
  [[nodiscard]] bool has_bias() const noexcept { return with_bias_; }

  /// Installs (or, with nullptr, removes) the eval-forward MVM replacement.
  /// The hook's feature extents must match this layer. NOT carried by clone().
  void set_mvm_hook(std::shared_ptr<const MvmHook> hook);
  [[nodiscard]] const MvmHook* mvm_hook() const noexcept { return mvm_hook_.get(); }

 private:
  Linear(const Linear& other);  ///< clone(): params copied, caches and hook dropped

  std::int64_t in_features_;
  std::int64_t out_features_;
  bool with_bias_;
  Param weight_;
  Param bias_;
  Tensor cached_input_;  ///< input of the last training forward; freed by backward
  std::shared_ptr<const MvmHook> mvm_hook_;
};

}  // namespace ftpim
