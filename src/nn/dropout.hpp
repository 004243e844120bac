// Inverted dropout. Disabled (identity) in eval mode. Seeded explicitly so
// training stays reproducible.
#pragma once

#include "src/common/rng.hpp"
#include "src/nn/module.hpp"

namespace ftpim {

class Dropout final : public Module {
 public:
  explicit Dropout(float drop_prob, std::uint64_t seed = 0xd70);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  /// The clone carries the current RNG state, so source and clone draw the
  /// same mask stream from the point of cloning onward.
  [[nodiscard]] std::unique_ptr<Module> clone() const override;
  [[nodiscard]] std::string type_name() const override { return "Dropout"; }

  [[nodiscard]] float drop_prob() const noexcept { return drop_prob_; }

 private:
  Dropout(const Dropout& other) : drop_prob_(other.drop_prob_), rng_(other.rng_) {}

  float drop_prob_;
  Rng rng_;
  Tensor cached_mask_;  ///< scaled keep mask (0 or 1/(1-p)); freed by backward
};

}  // namespace ftpim
