// Sequential container: forward runs children in order, backward in reverse.
//
// In eval, a Conv2d followed by a BatchNorm2d (and a ReLU) runs as one fused
// conv (Conv2d::forward_eval_fused): BN's eval affine and the ReLU ride in
// the conv's GEMM epilogue, with outputs bit-identical to running the
// children one by one. Training always runs them one by one.
#pragma once

#include <memory>
#include <vector>

#include "src/nn/module.hpp"

namespace ftpim {

class Sequential final : public Module {
 public:
  Sequential() = default;

  /// Deep copy: every child is clone()d, so the copy shares no storage or
  /// caches with `other` (same contract as Module::clone()). This is the one
  /// copyable Module — it is the repo's model type, and value copies are what
  /// per-worker evaluation and harness model cloning build on.
  Sequential(const Sequential& other);

  /// Appends a child module; returns a reference for chaining.
  Sequential& add(std::unique_ptr<Module> child);

  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto child = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *child;
    add(std::move(child));
    return ref;
  }

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  void collect_params(const std::string& prefix, std::vector<Param*>& out) override;
  void collect_const_params(std::vector<const Param*>& out) const override;
  void collect_buffers(const std::string& prefix,
                       std::vector<std::pair<std::string, Tensor*>>& out) override;
  void collect_modules(std::vector<Module*>& out) override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Sequential"; }

  [[nodiscard]] std::size_t size() const noexcept { return children_.size(); }
  [[nodiscard]] Module& child(std::size_t i) { return *children_.at(i); }

 private:
  std::vector<std::unique_ptr<Module>> children_;
};

}  // namespace ftpim
