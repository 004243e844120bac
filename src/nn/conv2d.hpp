// 2-D convolution (NCHW) via fused-im2col packed GEMM.
//
// Patch gathering happens inside the kernel backend's pack step
// (src/tensor/kernels/), so the [C*kh*kw, oh*ow] column matrix is never
// materialized — forward, dW, and dX all stream KC x NR panels through the
// per-thread pack arena instead. Forward lowers each worker's image range in
// GEMMs that span several images; the bias (and, in a fused eval block, BN
// and ReLU) is applied in the GEMM epilogue.
//
// CIFAR-style ResNets use 3x3 stride-1/2 pad-1 convolutions without bias
// (batch norm follows); bias is supported for standalone use.
//
// An installed MvmHook replaces the filter GEMM during eval-mode forward:
// each image is lowered to a [out_h*out_w, C*kh*kw] patch matrix and fed to
// the hook as a batch of patch rows (training and backward always use the
// float weights); see mvm_hook.hpp.
#pragma once

#include <memory>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"
#include "src/nn/mvm_hook.hpp"
#include "src/tensor/im2col.hpp"

namespace ftpim {

class Conv2d final : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
         std::int64_t stride, std::int64_t pad, Rng& rng, bool with_bias = false);

  Tensor forward(const Tensor& input, bool training) override;

  /// Eval forward of this conv followed by a per-channel affine and an
  /// optional ReLU, applied to each output tile as it leaves the GEMM:
  ///   y = relu?(scale[c] * (conv + bias[c]) + shift[c])
  /// Sequential runs Conv2d -> BatchNorm2d (-> ReLU) this way, with scale
  /// and shift from BatchNorm2d::eval_affine, so the output is bit-identical
  /// to the three forwards in turn while BN and ReLU make no pass and no
  /// tensor of their own. An installed hook still replaces the GEMM.
  Tensor forward_eval_fused(const Tensor& input, const float* scale, const float* shift,
                            bool relu);

  /// Training forward that keeps no copy of its input: the caller keeps the
  /// input (or rebuilds it bit for bit) and passes it to
  /// backward(grad_output, input). Sequential runs a Conv2d that follows
  /// BatchNorm2d -> ReLU this way.
  Tensor forward_uncached(const Tensor& input);

  /// Gradient of the training forward that cached its input; frees that cache.
  Tensor backward(const Tensor& grad_output) override;
  /// Gradient of a training forward of `input` (forward_uncached): the same
  /// parameter gradients and returned grad as backward(grad_output) after
  /// forward(input, true).
  Tensor backward(const Tensor& grad_output, const Tensor& input);

  /// Input of the last forward(input, true), empty once backward freed it.
  /// ResidualBlock reads its block input here instead of caching it again.
  [[nodiscard]] const Tensor& cached_input() const noexcept { return cached_input_; }
  void collect_params(const std::string& prefix, std::vector<Param*>& out) override;
  void collect_const_params(std::vector<const Param*>& out) const override;
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Conv2d"; }

  [[nodiscard]] std::int64_t in_channels() const noexcept { return in_channels_; }
  [[nodiscard]] std::int64_t out_channels() const noexcept { return out_channels_; }
  [[nodiscard]] std::int64_t kernel() const noexcept { return kernel_; }
  [[nodiscard]] std::int64_t stride() const noexcept { return stride_; }
  [[nodiscard]] Param& weight() noexcept { return weight_; }

  /// Installs (or, with nullptr, removes) the eval-forward MVM replacement.
  /// The hook must map in_c*k*k -> out_c. NOT carried by clone().
  void set_mvm_hook(std::shared_ptr<const MvmHook> hook);
  [[nodiscard]] const MvmHook* mvm_hook() const noexcept { return mvm_hook_.get(); }

 private:
  Conv2d(const Conv2d& other);  ///< clone(): params copied, caches and hook dropped

  /// Forward with the bias, the optional per-channel affine (scale/shift,
  /// both or neither) and the optional ReLU applied to every output element;
  /// `hook`, when set, replaces the filter GEMM.
  Tensor run_forward(const Tensor& input, const MvmHook* hook, const float* scale,
                     const float* shift, bool relu);

  /// Convolution geometry for an [N, in_c, H, W] input.
  [[nodiscard]] ConvGeometry geometry_of(const Tensor& input) const;

  std::int64_t in_channels_, out_channels_, kernel_, stride_, pad_;
  bool with_bias_;
  Param weight_;  ///< [out_c, in_c * k * k] — already in crossbar matrix layout
  Param bias_;    ///< [out_c]
  /// Input of the last forward(input, true); backward re-gathers patches from
  /// it and frees it.
  Tensor cached_input_;
  std::shared_ptr<const MvmHook> mvm_hook_;
};

}  // namespace ftpim
