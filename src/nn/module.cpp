#include "src/nn/module.hpp"

#include <stdexcept>

namespace ftpim {

std::vector<Param*> parameters_of(Module& root, const std::string& prefix) {
  std::vector<Param*> params;
  root.collect_params(prefix, params);
  return params;
}

std::vector<Param*> crossbar_params(Module& root) {
  std::vector<Param*> params = parameters_of(root);
  std::erase_if(params, [](const Param* p) { return p->kind != ParamKind::kCrossbarWeight; });
  return params;
}

std::vector<const Param*> crossbar_params(const Module& root) {
  std::vector<const Param*> params;
  root.collect_const_params(params);
  std::erase_if(params, [](const Param* p) { return p->kind != ParamKind::kCrossbarWeight; });
  return params;
}

std::vector<Module*> modules_of(Module& root) {
  std::vector<Module*> modules;
  root.collect_modules(modules);
  return modules;
}

void zero_grads(Module& root) {
  for (Param* p : parameters_of(root)) p->grad.zero();
}

std::int64_t parameter_count(Module& root) {
  std::int64_t n = 0;
  for (const Param* p : parameters_of(root)) n += p->value.numel();
  return n;
}

StateDict state_dict_of(Module& root) {
  StateDict state;
  for (const Param* p : parameters_of(root)) state.emplace(p->name, p->value);
  std::vector<std::pair<std::string, Tensor*>> buffers;
  root.collect_buffers("", buffers);
  for (const auto& [name, tensor] : buffers) state.emplace(name, *tensor);
  return state;
}

void load_state_dict_into(Module& root, const StateDict& state) {
  auto fetch = [&state](const std::string& name) -> const Tensor& {
    const auto it = state.find(name);
    if (it == state.end()) {
      throw std::runtime_error("load_state_dict_into: missing entry '" + name + "'");
    }
    return it->second;
  };
  for (Param* p : parameters_of(root)) {
    const Tensor& src = fetch(p->name);
    if (src.shape() != p->value.shape()) {
      throw std::runtime_error("load_state_dict_into: shape mismatch for '" + p->name + "': " +
                               shape_to_string(src.shape()) + " vs " +
                               shape_to_string(p->value.shape()));
    }
    p->value = src;
  }
  std::vector<std::pair<std::string, Tensor*>> buffers;
  root.collect_buffers("", buffers);
  for (auto& [name, tensor] : buffers) {
    const Tensor& src = fetch(name);
    if (src.shape() != tensor->shape()) {
      throw std::runtime_error("load_state_dict_into: shape mismatch for buffer '" + name + "'");
    }
    *tensor = src;
  }
}

}  // namespace ftpim
