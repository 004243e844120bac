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

}  // namespace

Tensor Sequential::forward(const Tensor& input, bool training) {
  if (children_.empty()) return input;
  Tensor x;
  for (std::size_t i = 0; i < children_.size();) {
    // The first child reads the caller's tensor in place.
    const Tensor& in = i == 0 ? input : x;
    const std::size_t fused = training ? 0 : forward_conv_block(children_, i, in, x);
    if (fused == 0) x = children_[i]->forward(in, training);
    i += fused == 0 ? 1 : fused;
  }
  return x;
}

Tensor Sequential::backward(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = children_.rbegin(); it != children_.rend(); ++it) g = (*it)->backward(g);
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
