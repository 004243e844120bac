#include "src/optim/sgd.hpp"

#include "src/common/check.hpp"

#include <cmath>

namespace ftpim {

Sgd::Sgd(std::vector<Param*> params, SgdConfig config)
    : params_(std::move(params)), config_(config) {
  FTPIM_CHECK(!(config_.lr <= 0.0f), "Sgd: lr must be positive");
  FTPIM_CHECK(!(config_.momentum < 0.0f || config_.momentum >= 1.0f), "Sgd: momentum must be in [0,1)");
  velocity_.reserve(params_.size());
  for (Param* p : params_) {
    p->ensure_grad();
    velocity_.emplace_back(p->value.shape());
  }
}

void Sgd::set_mask(const Param* param, Tensor mask) {
  if (mask.shape() != param->value.shape()) {
    throw ContractViolation("Sgd::set_mask: mask shape mismatch for " + param->name);
  }
  masks_[param] = std::move(mask);
}

StateDict Sgd::state_dict() const {
  StateDict state;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    state.emplace("velocity/" + params_[k]->name, velocity_[k]);
  }
  return state;
}

void Sgd::load_state(const StateDict& state) {
  for (std::size_t k = 0; k < params_.size(); ++k) {
    const std::string key = "velocity/" + params_[k]->name;
    const auto it = state.find(key);
    FTPIM_CHECK(it != state.end(), "Sgd::load_state: missing entry '%s'", key.c_str());
    FTPIM_CHECK(it->second.shape() == velocity_[k].shape(),
                "Sgd::load_state: shape mismatch for '%s'", key.c_str());
    velocity_[k] = it->second;
  }
}

void Sgd::step() {
  check_grads_match(params_, "Sgd::step");
  // Optional global-norm gradient clipping.
  float clip_scale = 1.0f;
  if (config_.grad_clip > 0.0f) {
    double sq = 0.0;
    for (const Param* p : params_) {
      const float* g = p->grad.data();
      for (std::int64_t i = 0; i < p->grad.numel(); ++i) sq += static_cast<double>(g[i]) * g[i];
    }
    const double norm = std::sqrt(sq);
    if (norm > config_.grad_clip) {
      clip_scale = static_cast<float>(config_.grad_clip / (norm + 1e-12));
    }
  }

  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param* p = params_[k];
    Tensor& vel = velocity_[k];
    const float decay = (p->kind == ParamKind::kCrossbarWeight) ? config_.weight_decay : 0.0f;
    const auto mask_it = masks_.find(p);
    const float* mask = mask_it != masks_.end() ? mask_it->second.data() : nullptr;

    float* w = p->value.data();
    const float* g = p->grad.data();
    float* v = vel.data();
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      float grad = g[i] * clip_scale + decay * w[i];
      if (mask != nullptr && mask[i] == 0.0f) {
        v[i] = 0.0f;
        w[i] = 0.0f;
        continue;
      }
      v[i] = config_.momentum * v[i] + grad;
      w[i] -= config_.lr * v[i];
    }
  }
}

}  // namespace ftpim
