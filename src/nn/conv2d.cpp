#include "src/nn/conv2d.hpp"

#include "src/common/check.hpp"

#include <algorithm>

#include "src/common/parallel.hpp"
#include "src/nn/init.hpp"
#include "src/tensor/kernels/conv_kernels.hpp"
#include "src/tensor/kernels/pack_arena.hpp"

namespace ftpim {
namespace {

// Fixed number of gradient-accumulation slots in backward. Deliberately
// independent of num_threads(): each slot owns a fixed image range and is
// processed by exactly one worker, and the slot partials are reduced in slot
// order, so dW/db are bit-identical for any FTPIM_THREADS value.
constexpr std::int64_t kReduceSlots = 16;

void add_into(Tensor& acc, const Tensor& src) {
  float* a = acc.data();
  const float* b = src.data();
  for (std::int64_t i = 0; i < acc.numel(); ++i) a[i] += b[i];
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t pad, Rng& rng, bool with_bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      with_bias_(with_bias),
      weight_("weight", Tensor(Shape{out_channels, in_channels * kernel * kernel}),
              ParamKind::kCrossbarWeight),
      bias_("bias", Tensor(Shape{out_channels}), ParamKind::kBias) {
  FTPIM_CHECK(!(in_channels <= 0 || out_channels <= 0 || kernel <= 0 || stride <= 0 || pad < 0), "Conv2d: invalid geometry");
  kaiming_normal(weight_.value, in_channels * kernel * kernel, rng);
}

Conv2d::Conv2d(const Conv2d& other)
    : in_channels_(other.in_channels_),
      out_channels_(other.out_channels_),
      kernel_(other.kernel_),
      stride_(other.stride_),
      pad_(other.pad_),
      with_bias_(other.with_bias_),
      weight_(other.weight_.clone_detached()),
      bias_(other.bias_.clone_detached()) {}

std::unique_ptr<Module> Conv2d::clone() const {
  return std::unique_ptr<Module>(new Conv2d(*this));
}

ConvGeometry Conv2d::geometry_of(const Tensor& input) const {
  return ConvGeometry{.in_c = in_channels_,
                      .in_h = input.dim(2),
                      .in_w = input.dim(3),
                      .kernel_h = kernel_,
                      .kernel_w = kernel_,
                      .stride_h = stride_,
                      .stride_w = stride_,
                      .pad_h = pad_,
                      .pad_w = pad_};
}

Tensor Conv2d::forward(const Tensor& input, bool training) {
  // Training always runs the float weights; an installed hook serves eval.
  if (!training) return run_forward(input, mvm_hook_.get(), nullptr, nullptr, false);
  Tensor out = forward_uncached(input);
  cached_input_ = input;
  return out;
}

Tensor Conv2d::forward_uncached(const Tensor& input) {
  return run_forward(input, nullptr, nullptr, nullptr, false);
}

Tensor Conv2d::forward_eval_fused(const Tensor& input, const float* scale, const float* shift,
                                  bool relu) {
  FTPIM_CHECK(scale != nullptr && shift != nullptr, "Conv2d::forward_eval_fused: null affine");
  return run_forward(input, mvm_hook_.get(), scale, shift, relu);
}

Tensor Conv2d::run_forward(const Tensor& input, const MvmHook* hook, const float* scale,
                           const float* shift, bool relu) {
  if (input.rank() != 4 || input.dim(1) != in_channels_) {
    throw ContractViolation("Conv2d::forward: expected [N," + std::to_string(in_channels_) +
                                ",H,W], got " + shape_to_string(input.shape()));
  }
  const std::int64_t n = input.dim(0);
  const ConvGeometry geom = geometry_of(input);
  const std::int64_t oh = geom.out_h();
  const std::int64_t ow = geom.out_w();
  FTPIM_CHECK(!(oh <= 0 || ow <= 0), "Conv2d::forward: output would be empty");
  const std::int64_t in_plane = in_channels_ * geom.in_h * geom.in_w;
  const std::int64_t pixels = oh * ow;
  const std::int64_t out_plane = out_channels_ * pixels;
  const kernels::RowEpilogue epilogue{.bias = with_bias_ ? bias_.value.data() : nullptr,
                                      .scale = scale,
                                      .shift = shift,
                                      .relu = relu};
  const bool has_epilogue = epilogue.bias != nullptr || epilogue.scale != nullptr || epilogue.relu;
  const kernels::RowEpilogue* epi = has_epilogue ? &epilogue : nullptr;

  Tensor out(Shape{n, out_channels_, oh, ow});
  if (hook == nullptr) {
    // Patches are gathered inside the kernel backend's pack step (fused
    // im2col), so no column matrix exists — not even in training: backward
    // re-gathers patches from the forward's input the same way. Each worker lowers
    // its contiguous image range in GEMMs that span several images.
    const float* w = weight_.value.data();
    parallel_for_chunks(
        0, static_cast<std::size_t>(n),
        [&](std::size_t lo, std::size_t hi) {
          const auto first = static_cast<std::int64_t>(lo);
          kernels::conv_forward_packed(geom, w, out_channels_, input.data() + first * in_plane,
                                       out.data() + first * out_plane,
                                       static_cast<std::int64_t>(hi - lo), epi);
        },
        /*min_parallel_trip=*/2);
    return out;
  }

  // Deployed path: stage each image's patch matrix explicitly and hand each
  // output pixel to the hook as one activation row. Float scratch slots 1/3 —
  // disjoint from the conv-dX slab (0) and the crossbar current buffer (2);
  // the quantized engine underneath only touches the typed integer slots.
  parallel_for(0, static_cast<std::size_t>(n), [&](std::size_t i) {
    float* dst = out.data() + static_cast<std::int64_t>(i) * out_plane;
    const std::int64_t col_rows = geom.col_rows();  // in_c * k * k
    kernels::PackArena& arena = kernels::PackArena::local();
    float* col = arena.scratch_buffer(1, static_cast<std::size_t>(col_rows * pixels));
    im2col(input.data() + static_cast<std::int64_t>(i) * in_plane, geom, col);
    float* patches = arena.scratch_buffer(3, static_cast<std::size_t>(pixels * col_rows));
    for (std::int64_t p = 0; p < pixels; ++p) {
      for (std::int64_t r = 0; r < col_rows; ++r) patches[p * col_rows + r] = col[r * pixels + p];
    }
    // col is dead past this point; its slot restages as the hook output.
    float* yb = arena.scratch_buffer(1, static_cast<std::size_t>(pixels * out_channels_));
    hook->mvm_batch(patches, pixels, yb);
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      float* row = dst + c * pixels;
      for (std::int64_t p = 0; p < pixels; ++p) row[p] = yb[p * out_channels_ + c];
      if (epi != nullptr) kernels::apply_row_epilogue(*epi, c, row, pixels);
    }
  });
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  const Tensor input = std::move(cached_input_);  // freed when backward returns
  FTPIM_CHECK(!input.empty(), "Conv2d::backward called without a training forward");
  return backward(grad_output, input);
}

Tensor Conv2d::backward(const Tensor& grad_output, const Tensor& input) {
  FTPIM_CHECK(input.rank() == 4 && input.dim(1) == in_channels_,
              "Conv2d::backward: input is not a [N,%lld,H,W] training input",
              static_cast<long long>(in_channels_));
  const std::int64_t n = input.dim(0);
  const ConvGeometry geom = geometry_of(input);
  const std::int64_t oh = geom.out_h();
  const std::int64_t ow = geom.out_w();
  const std::int64_t in_plane = in_channels_ * geom.in_h * geom.in_w;
  const std::int64_t out_plane = out_channels_ * oh * ow;
  if (grad_output.rank() != 4 || grad_output.dim(0) != n || grad_output.dim(1) != out_channels_ ||
      grad_output.dim(2) != oh || grad_output.dim(3) != ow) {
    throw ContractViolation("Conv2d::backward: grad shape mismatch");
  }
  weight_.ensure_grad();
  if (with_bias_) bias_.ensure_grad();

  Tensor grad_input(input.shape());
  const float* w = weight_.value.data();
  const float* x = input.data();

  // One dW/db partial per running worker. The slots run in waves of
  // `workers`, and each wave's partials are added into grad in slot order
  // before the next wave zeroes and reuses them: the same sums, in the same
  // order, as holding all kReduceSlots partials at once.
  const std::int64_t slots = std::min<std::int64_t>(kReduceSlots, n);
  const std::int64_t workers =
      in_parallel_region() ? 1 : std::min<std::int64_t>(slots, num_threads());
  std::vector<Tensor> dw_partial(static_cast<std::size_t>(workers), Tensor(weight_.value.shape()));
  std::vector<Tensor> db_partial(static_cast<std::size_t>(with_bias_ ? workers : 0),
                                 Tensor(bias_.value.shape()));

  for (std::int64_t first = 0; first < slots; first += workers) {
    const std::int64_t wave = std::min(workers, slots - first);
    parallel_for(0, static_cast<std::size_t>(wave), [&](std::size_t k) {
      const std::int64_t s = first + static_cast<std::int64_t>(k);
      const std::int64_t lo = s * n / slots;
      const std::int64_t hi = (s + 1) * n / slots;
      Tensor& dw = dw_partial[k];
      dw.zero();
      if (with_bias_) db_partial[k].zero();
      for (std::int64_t i = lo; i < hi; ++i) {
        const float* dy = grad_output.data() + i * out_plane;
        const float* img = x + i * in_plane;
        kernels::conv_grad_weight_packed(geom, dy, out_channels_, img, dw.data());
        if (with_bias_) {
          float* pdb = db_partial[k].data();
          for (std::int64_t c = 0; c < out_channels_; ++c) {
            const float* row = dy + c * oh * ow;
            double acc = 0.0;
            for (std::int64_t p = 0; p < oh * ow; ++p) acc += row[p];
            pdb[c] += static_cast<float>(acc);
          }
        }
        kernels::conv_grad_input_packed(geom, w, out_channels_, dy,
                                        grad_input.data() + i * in_plane);
      }
    });
    for (std::int64_t k = 0; k < wave; ++k) {
      add_into(weight_.grad, dw_partial[static_cast<std::size_t>(k)]);
      if (with_bias_) add_into(bias_.grad, db_partial[static_cast<std::size_t>(k)]);
    }
  }
  return grad_input;
}

void Conv2d::set_mvm_hook(std::shared_ptr<const MvmHook> hook) {
  if (hook != nullptr) {
    const std::int64_t patch = in_channels_ * kernel_ * kernel_;
    FTPIM_CHECK(hook->in_features() == patch && hook->out_features() == out_channels_,
                "Conv2d::set_mvm_hook: hook extents [%lld -> %lld] do not match layer "
                "[%lld -> %lld]",
                static_cast<long long>(hook->in_features()),
                static_cast<long long>(hook->out_features()), static_cast<long long>(patch),
                static_cast<long long>(out_channels_));
  }
  mvm_hook_ = std::move(hook);
}

void Conv2d::collect_const_params(std::vector<const Param*>& out) const {
  out.push_back(&weight_);
  if (with_bias_) out.push_back(&bias_);
}

void Conv2d::collect_params(const std::string& prefix, std::vector<Param*>& out) {
  weight_.name = prefix + "weight";
  out.push_back(&weight_);
  if (with_bias_) {
    bias_.name = prefix + "bias";
    out.push_back(&bias_);
  }
}

}  // namespace ftpim
