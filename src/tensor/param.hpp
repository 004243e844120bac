// Named trainable parameter: a value/grad Tensor pair tagged with where the
// weight physically lives (ReRAM crossbar vs digital periphery).
//
// The gradient is allocated lazily: a Param holds no grad storage until
// ensure_grad() is called, which the layers do at the top of backward() and
// the optimizers/pruners do for every param they own. Inference copies —
// serve replicas, fleet devices, evaluator worker clones — therefore hold
// values only.
//
// This lives in the tensor module (not nn) on purpose: optimizers update
// `Param`s and fault injection / pruning select by `ParamKind` without ever
// needing the Module graph, so optim and reram can depend on tensor alone —
// the layering DAG keeps nn/optim/data as independent siblings
// (tools/ftpim_analyze.py enforces it).
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "src/common/check.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

enum class ParamKind {
  kCrossbarWeight,  ///< mapped onto ReRAM cells: fault-injectable, prunable, weight-decayed
  kBias,            ///< digital peripheral storage: not fault-injected
  kNorm,            ///< batch-norm scale/shift: digital, not fault-injected
};

struct Param {
  std::string name;  ///< hierarchical name, e.g. "stage1.block0.conv1.weight"
  Tensor value;
  Tensor grad;
  ParamKind kind = ParamKind::kCrossbarWeight;

  Param() = default;
  Param(std::string n, Tensor v, ParamKind k)
      : name(std::move(n)), value(std::move(v)), kind(k) {}

  /// Allocates a zeroed gradient shaped like `value` if none exists yet.
  void ensure_grad() {
    if (grad.empty()) grad = Tensor(value.shape());
  }

  /// Copy with the value in fresh storage and no gradient — what a
  /// Module::clone() needs (grads are per-training-loop state, not weights).
  [[nodiscard]] Param clone_detached() const { return Param(name, value, kind); }
};

/// Throws ContractViolation naming `who` unless every gradient is shaped like
/// its value: the precondition of any consumer indexing grad by value.numel().
inline void check_grads_match(const std::vector<Param*>& params, const char* who) {
  for (const Param* p : params) {
    FTPIM_CHECK_EQ(p->grad.numel(), p->value.numel(),
                   "%s: gradient of '%s' does not match its value", who, p->name.c_str());
  }
}

}  // namespace ftpim
