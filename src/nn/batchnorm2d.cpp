#include "src/nn/batchnorm2d.hpp"

#include "src/common/check.hpp"

#include <cmath>
#include <vector>

#include "src/tensor/select.hpp"

namespace ftpim {
namespace {

/// The training output of one element. The forward and cached_output() both
/// go through it, so a rebuilt output has the forward's bits: this TU is
/// built without -mfma, so the multiply-add never contracts into an FMA on
/// one side only.
inline float train_output(float gamma, float beta, float xhat, bool relu) {
  const float y = gamma * xhat + beta;
  return relu ? relu_select(y) : y;
}

}  // namespace

BatchNorm2d::BatchNorm2d(std::int64_t channels, float momentum, float eps)
    : channels_(channels),
      momentum_(momentum),
      eps_(eps),
      gamma_("gamma", Tensor(Shape{channels}, 1.0f), ParamKind::kNorm),
      beta_("beta", Tensor(Shape{channels}, 0.0f), ParamKind::kNorm),
      running_mean_(Shape{channels}, 0.0f),
      running_var_(Shape{channels}, 1.0f) {
  FTPIM_CHECK(!(channels <= 0), "BatchNorm2d: channels must be positive");
}

BatchNorm2d::BatchNorm2d(const BatchNorm2d& other)
    : channels_(other.channels_),
      momentum_(other.momentum_),
      eps_(other.eps_),
      gamma_(other.gamma_.clone_detached()),
      beta_(other.beta_.clone_detached()),
      running_mean_(other.running_mean_),
      running_var_(other.running_var_) {}

std::unique_ptr<Module> BatchNorm2d::clone() const {
  return std::unique_ptr<Module>(new BatchNorm2d(*this));
}

Tensor BatchNorm2d::forward(const Tensor& input, bool training) {
  return run_forward(input, training, /*relu=*/false);
}

Tensor BatchNorm2d::forward_relu(const Tensor& input) {
  return run_forward(input, /*training=*/true, /*relu=*/true);
}

Tensor BatchNorm2d::run_forward(const Tensor& input, bool training, bool relu) {
  if (input.rank() != 4 || input.dim(1) != channels_) {
    throw ContractViolation("BatchNorm2d::forward: expected [N," + std::to_string(channels_) +
                                ",H,W], got " + shape_to_string(input.shape()));
  }
  const std::int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::int64_t plane = h * w;
  const std::int64_t count = n * plane;
  Tensor out(input.shape());

  const float* gamma = gamma_.value.data();
  const float* beta = beta_.value.data();

  if (training) {
    cached_xhat_ = Tensor(input.shape());
    cached_inv_std_ = Tensor(Shape{channels_});
    for (std::int64_t c = 0; c < channels_; ++c) {
      double sum = 0.0, sq = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        const float* src = input.data() + (i * channels_ + c) * plane;
        for (std::int64_t p = 0; p < plane; ++p) {
          sum += src[p];
          sq += static_cast<double>(src[p]) * src[p];
        }
      }
      const double mean = sum / static_cast<double>(count);
      const double var = sq / static_cast<double>(count) - mean * mean;
      const float inv_std = 1.0f / std::sqrt(static_cast<float>(var) + eps_);
      cached_inv_std_[c] = inv_std;
      running_mean_[c] = (1.0f - momentum_) * running_mean_[c] +
                         momentum_ * static_cast<float>(mean);
      // Unbiased variance for running stats (PyTorch convention).
      const double unbiased =
          count > 1 ? var * static_cast<double>(count) / static_cast<double>(count - 1) : var;
      running_var_[c] = (1.0f - momentum_) * running_var_[c] +
                        momentum_ * static_cast<float>(unbiased);
      for (std::int64_t i = 0; i < n; ++i) {
        const float* src = input.data() + (i * channels_ + c) * plane;
        float* xh = cached_xhat_.data() + (i * channels_ + c) * plane;
        float* dst = out.data() + (i * channels_ + c) * plane;
        for (std::int64_t p = 0; p < plane; ++p) {
          const float xhat = (src[p] - static_cast<float>(mean)) * inv_std;
          xh[p] = xhat;
          dst[p] = train_output(gamma[c], beta[c], xhat, relu);
        }
      }
    }
  } else {
    std::vector<float> scale, shift;
    eval_affine(scale, shift);
    for (std::int64_t c = 0; c < channels_; ++c) {
      const float g = scale[static_cast<std::size_t>(c)];
      const float b = shift[static_cast<std::size_t>(c)];
      for (std::int64_t i = 0; i < n; ++i) {
        const float* src = input.data() + (i * channels_ + c) * plane;
        float* dst = out.data() + (i * channels_ + c) * plane;
        map_elems(src, dst, plane, [g, b](float x) { return g * x + b; });
      }
    }
  }
  return out;
}

Tensor BatchNorm2d::cached_output(bool relu) const {
  FTPIM_CHECK(!cached_xhat_.empty(), "BatchNorm2d::cached_output without a training forward");
  const std::int64_t n = cached_xhat_.dim(0);
  const std::int64_t plane = cached_xhat_.dim(2) * cached_xhat_.dim(3);
  Tensor out(cached_xhat_.shape());
  const float* gamma = gamma_.value.data();
  const float* beta = beta_.value.data();
  for (std::int64_t c = 0; c < channels_; ++c) {
    const float g = gamma[c], b = beta[c];
    for (std::int64_t i = 0; i < n; ++i) {
      const std::int64_t at = (i * channels_ + c) * plane;
      map_elems(cached_xhat_.data() + at, out.data() + at, plane,
                [g, b, relu](float xhat) { return train_output(g, b, xhat, relu); });
    }
  }
  return out;
}

void BatchNorm2d::eval_affine(std::vector<float>& scale, std::vector<float>& shift) const {
  scale.resize(static_cast<std::size_t>(channels_));
  shift.resize(static_cast<std::size_t>(channels_));
  const float* gamma = gamma_.value.data();
  const float* beta = beta_.value.data();
  for (std::int64_t c = 0; c < channels_; ++c) {
    const float inv_std = 1.0f / std::sqrt(running_var_[c] + eps_);
    const float g = gamma[c] * inv_std;
    scale[static_cast<std::size_t>(c)] = g;
    shift[static_cast<std::size_t>(c)] = beta[c] - g * running_mean_[c];
  }
}

Tensor BatchNorm2d::backward(const Tensor& grad_output) {
  // Both caches are freed when backward returns.
  const Tensor xhat = std::move(cached_xhat_);
  const Tensor inv_std = std::move(cached_inv_std_);
  FTPIM_CHECK(!xhat.empty(), "BatchNorm2d::backward called without a training forward");
  gamma_.ensure_grad();
  beta_.ensure_grad();
  const std::int64_t n = xhat.dim(0);
  const std::int64_t plane = xhat.dim(2) * xhat.dim(3);
  const std::int64_t count = n * plane;
  Tensor grad_input(grad_output.shape());
  const float* gamma = gamma_.value.data();

  for (std::int64_t c = 0; c < channels_; ++c) {
    // dgamma = sum(dy * xhat), dbeta = sum(dy)
    double dgamma = 0.0, dbeta = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dy = grad_output.data() + (i * channels_ + c) * plane;
      const float* xh = xhat.data() + (i * channels_ + c) * plane;
      for (std::int64_t p = 0; p < plane; ++p) {
        dgamma += static_cast<double>(dy[p]) * xh[p];
        dbeta += dy[p];
      }
    }
    gamma_.grad[c] += static_cast<float>(dgamma);
    beta_.grad[c] += static_cast<float>(dbeta);

    // dx = gamma*inv_std/count * (count*dy - dbeta - xhat*dgamma)
    const float scale = gamma[c] * inv_std[c] / static_cast<float>(count);
    const float fcount = static_cast<float>(count);
    const float fdg = static_cast<float>(dgamma);
    const float fdb = static_cast<float>(dbeta);
    for (std::int64_t i = 0; i < n; ++i) {
      const float* dy = grad_output.data() + (i * channels_ + c) * plane;
      const float* xh = xhat.data() + (i * channels_ + c) * plane;
      float* dx = grad_input.data() + (i * channels_ + c) * plane;
      for (std::int64_t p = 0; p < plane; ++p) {
        dx[p] = scale * (fcount * dy[p] - fdb - xh[p] * fdg);
      }
    }
  }
  return grad_input;
}

void BatchNorm2d::collect_params(const std::string& prefix, std::vector<Param*>& out) {
  gamma_.name = prefix + "gamma";
  beta_.name = prefix + "beta";
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm2d::collect_const_params(std::vector<const Param*>& out) const {
  out.push_back(&gamma_);
  out.push_back(&beta_);
}

void BatchNorm2d::collect_buffers(const std::string& prefix,
                                  std::vector<std::pair<std::string, Tensor*>>& out) {
  out.emplace_back(prefix + "running_mean", &running_mean_);
  out.emplace_back(prefix + "running_var", &running_var_);
}

}  // namespace ftpim
