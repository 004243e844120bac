#include "src/optim/adam.hpp"

#include "src/common/check.hpp"

#include <cmath>
#include <cstring>

namespace ftpim {

Adam::Adam(std::vector<Param*> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  FTPIM_CHECK(!(config_.lr <= 0.0f), "Adam: lr must be positive");
  if (config_.beta1 < 0.0f || config_.beta1 >= 1.0f || config_.beta2 < 0.0f ||
      config_.beta2 >= 1.0f) {
    throw ContractViolation("Adam: betas must be in [0,1)");
  }
  FTPIM_CHECK(!(config_.eps <= 0.0f), "Adam: eps must be positive");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    p->ensure_grad();
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::set_mask(const Param* param, Tensor mask) {
  if (mask.shape() != param->value.shape()) {
    throw ContractViolation("Adam::set_mask: mask shape mismatch for " + param->name);
  }
  masks_[param] = std::move(mask);
}

StateDict Adam::state_dict() const {
  StateDict state;
  for (std::size_t k = 0; k < params_.size(); ++k) {
    state.emplace("adam_m/" + params_[k]->name, m_[k]);
    state.emplace("adam_v/" + params_[k]->name, v_[k]);
  }
  // The step counter drives bias correction; its 64 bits are bit-cast into
  // two float lanes so the whole optimizer state stays one StateDict and the
  // round trip is exact at any step count.
  Tensor t_bits(Shape{2});
  const auto u = static_cast<std::uint64_t>(t_);
  const std::uint32_t lo = static_cast<std::uint32_t>(u);
  const std::uint32_t hi = static_cast<std::uint32_t>(u >> 32);
  std::memcpy(t_bits.data(), &lo, sizeof(lo));
  std::memcpy(t_bits.data() + 1, &hi, sizeof(hi));
  state.emplace("adam_t", std::move(t_bits));
  return state;
}

void Adam::load_state(const StateDict& state) {
  auto fetch = [&state](const std::string& key) -> const Tensor& {
    const auto it = state.find(key);
    FTPIM_CHECK(it != state.end(), "Adam::load_state: missing entry '%s'", key.c_str());
    return it->second;
  };
  for (std::size_t k = 0; k < params_.size(); ++k) {
    const Tensor& m = fetch("adam_m/" + params_[k]->name);
    const Tensor& v = fetch("adam_v/" + params_[k]->name);
    FTPIM_CHECK(m.shape() == m_[k].shape() && v.shape() == v_[k].shape(),
                "Adam::load_state: shape mismatch for '%s'", params_[k]->name.c_str());
    m_[k] = m;
    v_[k] = v;
  }
  const Tensor& t_bits = fetch("adam_t");
  FTPIM_CHECK_EQ(t_bits.numel(), std::int64_t{2}, "Adam::load_state: adam_t must hold 2 lanes");
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  std::memcpy(&lo, t_bits.data(), sizeof(lo));
  std::memcpy(&hi, t_bits.data() + 1, sizeof(hi));
  t_ = static_cast<std::int64_t>((static_cast<std::uint64_t>(hi) << 32) | lo);
}

void Adam::step() {
  check_grads_match(params_, "Adam::step");
  ++t_;
  const float bc1 = 1.0f - std::pow(config_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(config_.beta2, static_cast<float>(t_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Param* p = params_[k];
    const auto mask_it = masks_.find(p);
    const float* mask = mask_it != masks_.end() ? mask_it->second.data() : nullptr;
    const float decay = (p->kind == ParamKind::kCrossbarWeight) ? config_.weight_decay : 0.0f;

    float* w = p->value.data();
    const float* g = p->grad.data();
    float* m = m_[k].data();
    float* v = v_[k].data();
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      if (mask != nullptr && mask[i] == 0.0f) {
        m[i] = 0.0f;
        v[i] = 0.0f;
        w[i] = 0.0f;
        continue;
      }
      m[i] = config_.beta1 * m[i] + (1.0f - config_.beta1) * g[i];
      v[i] = config_.beta2 * v[i] + (1.0f - config_.beta2) * g[i] * g[i];
      const float mhat = m[i] / bc1;
      const float vhat = v[i] / bc2;
      w[i] -= config_.lr * (mhat / (std::sqrt(vhat) + config_.eps) + decay * w[i]);
    }
  }
}

}  // namespace ftpim
