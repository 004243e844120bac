#include "src/nn/sequential.hpp"

#include "src/common/check.hpp"
#include "src/nn/activations.hpp"
#include "src/nn/batchnorm2d.hpp"
#include "src/nn/conv2d.hpp"

namespace ftpim {

Sequential::Sequential(const Sequential& other) {
  children_.reserve(other.children_.size());
  for (const auto& child : other.children_) children_.push_back(child->clone());
}

std::unique_ptr<Module> Sequential::clone() const { return std::make_unique<Sequential>(*this); }

Sequential& Sequential::add(std::unique_ptr<Module> child) {
  FTPIM_CHECK(!(!child), "Sequential::add: null child");
  children_.push_back(std::move(child));
  return *this;
}

namespace {

/// Eval only: when children[i] is a Conv2d followed by a BatchNorm2d over its
/// channels (and then a ReLU), runs that block as one conv whose GEMM
/// epilogue applies BN's eval affine and the ReLU, and returns how many
/// children it covered; returns 0 when no such block starts at i.
std::size_t forward_conv_block(const std::vector<std::unique_ptr<Module>>& children,
                               std::size_t i, const Tensor& in, Tensor& out) {
  auto* conv = dynamic_cast<Conv2d*>(children[i].get());
  if (conv == nullptr || i + 1 == children.size()) return 0;
  const auto* bn = dynamic_cast<const BatchNorm2d*>(children[i + 1].get());
  if (bn == nullptr || bn->channels() != conv->out_channels()) return 0;
  const bool relu =
      i + 2 < children.size() && dynamic_cast<const ReLU*>(children[i + 2].get()) != nullptr;
  std::vector<float> scale, shift;
  bn->eval_affine(scale, shift);
  out = conv->forward_eval_fused(in, scale.data(), shift.data(), relu);
  return relu ? 3 : 2;
}

/// Training only: how many children starting at i run as one unit. A
/// BatchNorm2d followed by a ReLU covers 2, or 3 when a Conv2d follows them;
/// any other child covers 1.
std::size_t train_span(const std::vector<std::unique_ptr<Module>>& children, std::size_t i) {
  if (i + 1 >= children.size() || dynamic_cast<const BatchNorm2d*>(children[i].get()) == nullptr ||
      dynamic_cast<const ReLU*>(children[i + 1].get()) == nullptr) {
    return 1;
  }
  const bool conv =
      i + 2 < children.size() && dynamic_cast<const Conv2d*>(children[i + 2].get()) != nullptr;
  return conv ? 3 : 2;
}

/// Training forward of the unit train_span found at i. A BatchNorm2d -> ReLU
/// (-> Conv2d) unit keeps only BN's cache: BN writes the ReLU output r in
/// place, the ReLU keeps no mask and the conv keeps no copy of r.
Tensor forward_unit(const std::vector<std::unique_ptr<Module>>& children, std::size_t i,
                    std::size_t span, const Tensor& in) {
  if (span == 1) return children[i]->forward(in, /*training=*/true);
  Tensor r = static_cast<BatchNorm2d&>(*children[i]).forward_relu(in);
  if (span == 2) return r;
  return static_cast<Conv2d&>(*children[i + 2]).forward_uncached(r);
}

/// Backward of forward_unit. In a BatchNorm2d unit, r is rebuilt bit for bit
/// from BN's cache before BN's backward frees it, feeds the conv's backward
/// as its input, and masks the gradient where the ReLU passed nothing.
Tensor backward_unit(const std::vector<std::unique_ptr<Module>>& children, std::size_t i,
                     std::size_t span, Tensor g) {
  if (span == 1) return children[i]->backward(g);
  auto& bn = static_cast<BatchNorm2d&>(*children[i]);
  const Tensor r = bn.cached_output(/*relu=*/true);
  if (span == 3) g = static_cast<Conv2d&>(*children[i + 2]).backward(g, r);
  FTPIM_CHECK(g.numel() == r.numel(), "Sequential::backward: ReLU grad size mismatch");
  float* dy = g.data();
  const float* pr = r.data();
  // A product, not a select, so -0.0 and NaN gradients propagate exactly.
  for (std::int64_t k = 0; k < g.numel(); ++k) dy[k] *= static_cast<float>(pr[k] > 0.0f);
  return bn.backward(g);
}

}  // namespace

Tensor Sequential::forward(const Tensor& input, bool training) {
  if (children_.empty()) return input;
  Tensor x;
  for (std::size_t i = 0; i < children_.size();) {
    // The first child reads the caller's tensor in place.
    const Tensor& in = i == 0 ? input : x;
    std::size_t span = 1;
    if (training) {
      span = train_span(children_, i);
      x = forward_unit(children_, i, span, in);
    } else {
      span = forward_conv_block(children_, i, in, x);
      if (span == 0) {
        x = children_[i]->forward(in, false);
        span = 1;
      }
    }
    i += span;
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  // The units the training forward ran, walked in reverse.
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < children_.size(); i += train_span(children_, i)) starts.push_back(i);
  Tensor g = grad_output;
  for (auto it = starts.rbegin(); it != starts.rend(); ++it) {
    g = backward_unit(children_, *it, train_span(children_, *it), std::move(g));
  }
  return g;
}

void Sequential::collect_params(const std::string& prefix, std::vector<Param*>& out) {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    children_[i]->collect_params(prefix + std::to_string(i) + ".", out);
  }
}

void Sequential::collect_const_params(std::vector<const Param*>& out) const {
  for (const auto& child : children_) child->collect_const_params(out);
}

void Sequential::collect_buffers(const std::string& prefix,
                                 std::vector<std::pair<std::string, Tensor*>>& out) {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    children_[i]->collect_buffers(prefix + std::to_string(i) + ".", out);
  }
}

void Sequential::collect_modules(std::vector<Module*>& out) {
  out.push_back(this);
  for (const auto& child : children_) child->collect_modules(out);
}

}  // namespace ftpim
