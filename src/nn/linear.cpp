#include "src/nn/linear.hpp"

#include "src/common/check.hpp"


#include "src/nn/init.hpp"
#include "src/tensor/gemm.hpp"

namespace ftpim {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng, bool with_bias)
    : in_features_(in_features),
      out_features_(out_features),
      with_bias_(with_bias),
      weight_("weight", Tensor(Shape{out_features, in_features}), ParamKind::kCrossbarWeight),
      bias_("bias", Tensor(Shape{out_features}), ParamKind::kBias) {
  FTPIM_CHECK(!(in_features <= 0 || out_features <= 0), "Linear: feature counts must be positive");
  kaiming_uniform(weight_.value, in_features, rng);
}

Linear::Linear(const Linear& other)
    : in_features_(other.in_features_),
      out_features_(other.out_features_),
      with_bias_(other.with_bias_),
      weight_(other.weight_.clone_detached()),
      bias_(other.bias_.clone_detached()) {}

std::unique_ptr<Module> Linear::clone() const {
  return std::unique_ptr<Module>(new Linear(*this));
}

Tensor Linear::forward(const Tensor& input, bool training) {
  FTPIM_CHECK(input.rank() == 2 && input.dim(1) == in_features_,
              "Linear::forward: expected [N,%lld], got %s", static_cast<long long>(in_features_),
              shape_to_string(input.shape()).c_str());
  if (training) cached_input_ = input;
  const std::int64_t n = input.dim(0);
  Tensor out(Shape{n, out_features_});
  if (!training && mvm_hook_ != nullptr) {
    // Deployed path: the installed engine computes x W_effective^T.
    mvm_hook_->mvm_batch(input.data(), n, out.data());
  } else {
    // out[N,out] = input[N,in] * W^T[in,out] — the transpose is absorbed into
    // pack-B inside the kernel backend, not materialized.
    gemm_bt(n, out_features_, in_features_, 1.0f, input.data(), weight_.value.data(), 0.0f,
            out.data());
  }
  if (with_bias_) {
    float* po = out.data();
    const float* pb = bias_.value.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_features_; ++j) po[i * out_features_ + j] += pb[j];
    }
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  const Tensor input = std::move(cached_input_);  // freed when backward returns
  FTPIM_CHECK(!input.empty(), "Linear::backward called without a training forward");
  weight_.ensure_grad();
  if (with_bias_) bias_.ensure_grad();
  const std::int64_t n = grad_output.dim(0);
  // dW[out,in] += dY^T[out,N] * X[N,in]
  gemm_at(out_features_, in_features_, n, 1.0f, grad_output.data(), input.data(), 1.0f,
          weight_.grad.data());
  if (with_bias_) {
    float* pgb = bias_.grad.data();
    const float* pgo = grad_output.data();
    for (std::int64_t i = 0; i < n; ++i) {
      for (std::int64_t j = 0; j < out_features_; ++j) pgb[j] += pgo[i * out_features_ + j];
    }
  }
  // dX[N,in] = dY[N,out] * W[out,in]
  Tensor grad_input(Shape{n, in_features_});
  gemm(n, in_features_, out_features_, 1.0f, grad_output.data(), weight_.value.data(), 0.0f,
       grad_input.data());
  return grad_input;
}

void Linear::set_mvm_hook(std::shared_ptr<const MvmHook> hook) {
  if (hook != nullptr) {
    FTPIM_CHECK(hook->in_features() == in_features_ && hook->out_features() == out_features_,
                "Linear::set_mvm_hook: hook extents [%lld -> %lld] do not match layer "
                "[%lld -> %lld]",
                static_cast<long long>(hook->in_features()),
                static_cast<long long>(hook->out_features()),
                static_cast<long long>(in_features_), static_cast<long long>(out_features_));
  }
  mvm_hook_ = std::move(hook);
}

void Linear::collect_const_params(std::vector<const Param*>& out) const {
  out.push_back(&weight_);
  if (with_bias_) out.push_back(&bias_);
}

void Linear::collect_params(const std::string& prefix, std::vector<Param*>& out) {
  weight_.name = prefix + "weight";
  out.push_back(&weight_);
  if (with_bias_) {
    bias_.name = prefix + "bias";
    out.push_back(&bias_);
  }
}

}  // namespace ftpim
