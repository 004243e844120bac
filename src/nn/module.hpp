// Layer/module abstraction with explicit forward/backward.
//
// ftpim uses manual backprop over a static module graph (Sequential +
// Residual) rather than a tape autograd: the model zoo is ResNet-style, the
// graph never changes shape, and explicit backward keeps every kernel
// inspectable — which matters when fault injection rewrites weights between
// forward passes.
//
// Contract:
//   * forward(x, /*training=*/true) caches whatever backward needs; an
//     eval-mode forward leaves that cache alone.
//   * backward(grad_out) ACCUMULATES into param .grad (allocating it on
//     first use, see Param::ensure_grad) and returns grad wrt the forward
//     input. It consumes the cache: the cache is freed when backward
//     returns, so each training forward feeds exactly one backward, and a
//     second backward throws ContractViolation. Call zero_grads() between
//     steps.
//   * Parameters are exposed via collect_params(prefix, out); weights that
//     live on ReRAM crossbars (conv/linear kernels) are tagged
//     ParamKind::kCrossbarWeight — fault injection and pruning apply to
//     exactly this set.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "src/tensor/param.hpp"
#include "src/tensor/serialize.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim {

class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// Computes the layer output; `training` selects batch statistics vs
  /// running statistics etc. Must be called before backward().
  virtual Tensor forward(const Tensor& input, bool training) = 0;

  /// Propagates gradients; accumulates parameter grads; returns grad wrt the
  /// most recent training forward() input, whose cache it frees.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Appends pointers to this module's (and children's) parameters, with
  /// hierarchical names rooted at `prefix`.
  virtual void collect_params(const std::string& prefix, std::vector<Param*>& out) {
    (void)prefix;
    (void)out;
  }

  /// Read-only twin of collect_params: appends the same parameters in the
  /// same order but leaves their names alone, so a model that many threads
  /// share (a fleet's one pristine source) can be walked concurrently.
  virtual void collect_const_params(std::vector<const Param*>& out) const { (void)out; }

  /// Appends non-trainable state (e.g. BN running stats) as name/tensor
  /// pointer pairs for checkpointing.
  virtual void collect_buffers(const std::string& prefix,
                               std::vector<std::pair<std::string, Tensor*>>& out) {
    (void)prefix;
    (void)out;
  }

  /// Appends this module and (for containers) every descendant, parents
  /// before children, in forward order. The deployment layer uses this to
  /// find the concrete Linear/Conv2d instances behind a model so it can
  /// install per-layer hardware hooks (see mvm_hook.hpp).
  virtual void collect_modules(std::vector<Module*>& out) { out.push_back(this); }

  /// Deep copy: same architecture with parameter values and buffers (e.g. BN
  /// running stats) copied into fresh, disjoint storage. Gradients are not
  /// allocated and activation/backward caches are NOT carried over — the
  /// clone behaves as if freshly constructed and loaded from this module's
  /// state dict.
  /// Clones share no mutable state with the source, so each can run
  /// forward/backward (and be fault-injected) on its own thread concurrently.
  [[nodiscard]] virtual std::unique_ptr<Module> clone() const = 0;

  /// Short type tag for debugging ("Conv2d", "ReLU", ...).
  [[nodiscard]] virtual std::string type_name() const = 0;

 protected:
  Module() = default;
};

// --- whole-network helpers ---------------------------------------------------

/// All parameters of `root` with hierarchical names.
std::vector<Param*> parameters_of(Module& root, const std::string& prefix = "");

/// The ParamKind::kCrossbarWeight subset of parameters_of(root), in the same
/// order: the weights mapped onto ReRAM cells, which fault injection and
/// pruning walk.
std::vector<Param*> crossbar_params(Module& root);

/// crossbar_params through the read-only walk (collect_const_params): safe
/// on a model other threads read at the same time.
std::vector<const Param*> crossbar_params(const Module& root);

/// Flat pre-order walk of the module tree (root first).
std::vector<Module*> modules_of(Module& root);

/// Zeroes every allocated parameter gradient.
void zero_grads(Module& root);

/// Total trainable element count.
std::int64_t parameter_count(Module& root);

/// Serializes parameter values and buffers into a StateDict.
StateDict state_dict_of(Module& root);

/// Loads matching entries from `state` into `root`'s params/buffers.
/// Throws std::runtime_error on missing entries or shape mismatches.
void load_state_dict_into(Module& root, const StateDict& state);

}  // namespace ftpim
