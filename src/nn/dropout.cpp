#include "src/nn/dropout.hpp"

#include "src/common/check.hpp"


namespace ftpim {

Dropout::Dropout(float drop_prob, std::uint64_t seed) : drop_prob_(drop_prob), rng_(seed) {
  FTPIM_CHECK(!(drop_prob < 0.0f || drop_prob >= 1.0f), "Dropout: drop_prob must be in [0,1)");
}

std::unique_ptr<Module> Dropout::clone() const {
  return std::unique_ptr<Module>(new Dropout(*this));
}

Tensor Dropout::forward(const Tensor& input, bool training) {
  if (!training) return input;
  if (drop_prob_ == 0.0f) {
    cached_mask_ = Tensor(input.shape(), 1.0f);  // keeps every unit, draws nothing
    return input;
  }
  cached_mask_ = Tensor(input.shape());
  const float keep_scale = 1.0f / (1.0f - drop_prob_);
  Tensor out(input.shape());
  const float* src = input.data();
  float* mask = cached_mask_.data();
  float* dst = out.data();
  for (std::int64_t i = 0; i < input.numel(); ++i) {
    const bool keep = !rng_.bernoulli(drop_prob_);
    mask[i] = keep ? keep_scale : 0.0f;
    dst[i] = src[i] * mask[i];
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_output) {
  const Tensor keep = std::move(cached_mask_);  // freed on return
  FTPIM_CHECK(!keep.empty(), "Dropout::backward without training forward");
  FTPIM_CHECK(!(grad_output.shape() != keep.shape()), "Dropout::backward: grad shape mismatch");
  Tensor grad(grad_output.shape());
  const float* dy = grad_output.data();
  const float* mask = keep.data();
  float* dx = grad.data();
  for (std::int64_t i = 0; i < grad_output.numel(); ++i) dx[i] = dy[i] * mask[i];
  return grad;
}

}  // namespace ftpim
