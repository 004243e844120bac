// Shared helpers for ftpim tests: random tensors, finite-difference
// gradient checking of Module implementations, and per-test scratch
// directories.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"
#include "src/tensor/tensor.hpp"

namespace ftpim::testing {

inline Tensor random_tensor(Shape shape, std::uint64_t seed, float scale = 1.0f) {
  Tensor t(std::move(shape));
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) t[i] = scale * rng.normal();
  return t;
}

/// Scalar objective used by gradient checks: sum(output * probe), whose
/// gradient wrt the output is simply `probe`.
inline float probed_sum(const Tensor& out, const Tensor& probe) {
  double acc = 0.0;
  for (std::int64_t i = 0; i < out.numel(); ++i) {
    acc += static_cast<double>(out[i]) * probe[i];
  }
  return static_cast<float>(acc);
}

/// Max relative error between analytic and numeric input gradients of a
/// module, via central differences. Module must be deterministic in
/// training mode for repeated forwards on perturbed inputs (true for all
/// ftpim layers; BatchNorm recomputes batch stats which the numeric
/// derivative correctly accounts for).
inline double check_input_gradient(Module& module, const Tensor& input, std::uint64_t probe_seed,
                                   float eps = 1e-2f) {
  Tensor out = module.forward(input, /*training=*/true);
  const Tensor probe = random_tensor(out.shape(), probe_seed);
  const Tensor analytic = module.backward(probe);

  double max_err = 0.0;
  Tensor x = input;
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float saved = x[i];
    x[i] = saved + eps;
    const float up = probed_sum(module.forward(x, true), probe);
    x[i] = saved - eps;
    const float down = probed_sum(module.forward(x, true), probe);
    x[i] = saved;
    const double numeric = static_cast<double>(up - down) / (2.0 * eps);
    const double err = std::fabs(numeric - analytic[i]) /
                       std::max(1.0, std::fabs(numeric) + std::fabs(analytic[i]));
    max_err = std::max(max_err, err);
  }
  return max_err;
}

/// Max relative error of parameter gradients (all params of the module).
inline double check_param_gradients(Module& module, const Tensor& input,
                                    std::uint64_t probe_seed, float eps = 1e-2f) {
  Tensor out = module.forward(input, /*training=*/true);
  const Tensor probe = random_tensor(out.shape(), probe_seed);
  zero_grads(module);
  (void)module.backward(probe);

  double max_err = 0.0;
  for (Param* p : parameters_of(module)) {
    for (std::int64_t i = 0; i < p->value.numel(); ++i) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const float up = probed_sum(module.forward(input, true), probe);
      p->value[i] = saved - eps;
      const float down = probed_sum(module.forward(input, true), probe);
      p->value[i] = saved;
      const double numeric = static_cast<double>(up - down) / (2.0 * eps);
      const double err = std::fabs(numeric - p->grad[i]) /
                         std::max(1.0, std::fabs(numeric) + std::fabs(p->grad[i]));
      max_err = std::max(max_err, err);
    }
  }
  return max_err;
}

/// True when no parameter of `m` holds gradient storage — the state of every
/// inference copy (serve replicas, fleet devices, evaluator clones).
inline bool holds_no_grad(const Module& m) {
  std::vector<const Param*> params;
  m.collect_const_params(params);
  for (const Param* p : params) {
    if (!p->grad.empty()) return false;
  }
  return true;
}

/// Scratch directory private to the running test case, created empty under
/// the system temp dir and removed with its contents on scope exit. ctest
/// runs every case in its own process, possibly concurrently (ctest -j), so
/// the name carries suite.case, the pid and a per-process sequence number:
/// no two live cases ever share a path, and a fixed name under the temp dir
/// (which one case's cleanup could delete under another) is never needed.
class ScratchDir {
 public:
  ScratchDir() : path_(std::filesystem::temp_directory_path() / unique_name()) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;  // a destructor must not throw
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }
  [[nodiscard]] std::string str() const { return path_.string(); }
  /// `name` inside the scratch directory (not created).
  [[nodiscard]] std::filesystem::path file(const std::string& name) const { return path_ / name; }
  /// Fresh empty subdirectory `name` of the scratch directory.
  [[nodiscard]] std::filesystem::path sub(const std::string& name) const {
    const std::filesystem::path dir = path_ / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  }

 private:
  static std::string unique_name() {
    static std::atomic<int> sequence{0};
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = "ftpim_";
    name += info != nullptr ? std::string(info->test_suite_name()) + "." + info->name()
                            : std::string("no_test");
    for (char& c : name) {
      if (c == '/') c = '_';  // parameterized suites and cases contain '/'
    }
    return name + "." + std::to_string(::getpid()) + "." + std::to_string(sequence++);
  }

  std::filesystem::path path_;
};

}  // namespace ftpim::testing
