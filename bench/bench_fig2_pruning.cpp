// Reproduces Figure 2: accuracy of the dense model and pruned models
// (one-shot magnitude and ADMM, 40% and 70% sparsity, no FT training) under
// different testing failure rates — showing that sparser models are more
// fragile and that the two pruning families behave alike at equal sparsity.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "src/core/trainer.hpp"
#include "src/prune/admm_pruner.hpp"
#include "src/prune/magnitude_pruner.hpp"
#include "src/prune/sparsity.hpp"

namespace {

using namespace ftpim;
using namespace ftpim::bench;

void masked_finetune(Experiment& exp, Sequential& model, const std::vector<PruneMask>& masks) {
  TrainConfig tc = exp.base_train_config();
  tc.sgd.lr = 0.01f;
  Trainer trainer(model, exp.train_data(), tc);
  for (const PruneMask& m : masks) trainer.optimizer().set_mask(m.param, m.mask);
  trainer.run();
}

std::unique_ptr<Sequential> one_shot_pruned(Experiment& exp, Sequential& pretrained,
                                            double sparsity) {
  auto model = exp.clone_model(pretrained);
  const auto masks = magnitude_prune(*model, MagnitudePruneConfig{.sparsity = sparsity});
  masked_finetune(exp, *model, masks);
  return model;
}

std::unique_ptr<Sequential> admm_pruned(Experiment& exp, Sequential& pretrained, double sparsity) {
  auto model = exp.clone_model(pretrained);
  TrainConfig tc = exp.base_train_config();
  tc.sgd.lr = 0.01f;
  AdmmPruner pruner(*model, AdmmConfig{.sparsity = sparsity, .rho = 1e-2f});
  {
    Trainer trainer(*model, exp.train_data(), tc);
    TrainHooks hooks;
    hooks.after_backward = [&pruner](int, std::int64_t) { pruner.regularize_grads(); };
    hooks.after_epoch = [&pruner](int, float) { pruner.dual_update(); };
    trainer.set_hooks(hooks);
    trainer.run();
  }
  const auto masks = pruner.finalize();
  masked_finetune(exp, *model, masks);
  return model;
}

}  // namespace

int main() {
  // Figure 2 shows both datasets; one run covers the CIFAR-100/ResNet-32
  // panel by default (set FTPIM_FIG2_C10=1 for the CIFAR-10 panel).
  const bool c10 = env_int_in("FTPIM_FIG2_C10", 0, 0, 1) != 0;
  Experiment exp(ExperimentConfig{.classes = c10 ? 10 : 100,
                                  .resnet_depth = c10 ? 20 : 32,
                                  .scale = run_scale(),
                                  .seed = bench_seed(2027),
                                  .verbose = false});
  print_preamble("Figure 2 (dense vs pruned under SAF, no FT training)", exp);
  const std::vector<double> rates = test_rates_for(exp.config().scale);

  Timer timer;
  auto dense = exp.fresh_model();
  const double dense_acc = exp.pretrain(*dense);
  std::printf("dense acc=%.2f%% (%.0fs)\n", dense_acc * 100.0, timer.seconds());

  TablePrinter table("Figure 2 — accuracy (%) vs testing failure rate",
                     rate_headers("Model", rates));
  const std::vector<double> dense_curve = exp.sweep_rates(*dense, rates);
  table.add_row("Dense", to_percent(dense_curve));

  std::map<std::string, std::vector<double>> curves;
  struct Variant {
    const char* name;
    bool admm;
    double sparsity;
  };
  for (const Variant v : {Variant{"One-Shot 40%", false, 0.4}, Variant{"One-Shot 70%", false, 0.7},
                          Variant{"ADMM 40%", true, 0.4}, Variant{"ADMM 70%", true, 0.7}}) {
    timer.reset();
    auto model = v.admm ? admm_pruned(exp, *dense, v.sparsity)
                        : one_shot_pruned(exp, *dense, v.sparsity);
    const std::vector<double> curve = exp.sweep_rates(*model, rates);
    table.add_row(v.name, to_percent(curve));
    curves[v.name] = curve;
    std::printf("  %s: clean acc %.2f%%, sparsity %.1f%% (%.0fs)\n", v.name,
                curve.front() * 100.0, model_sparsity(*model) * 100.0, timer.seconds());
  }
  std::printf("\n%s\n", table.render().c_str());

  ShapeCheck check;
  // Mid-rate column for fragility comparison.
  std::size_t mid = 0;
  for (std::size_t i = 0; i < rates.size(); ++i) {
    if (rates[i] >= 0.005) {
      mid = i;
      break;
    }
  }
  check.expect(curves["One-Shot 70%"][mid] <= curves["One-Shot 40%"][mid] + 0.02 &&
                   curves["ADMM 70%"][mid] <= curves["ADMM 40%"][mid] + 0.02,
               "higher sparsity is at least as fragile at testing rate >= 0.005 (2pt tol)");
  check.expect(curves["One-Shot 70%"][mid] <= dense_curve[mid] + 0.02,
               "70% pruned is at least as fragile as dense (2pt tol)");
  const double same_sparsity_gap =
      std::abs(curves["One-Shot 70%"][mid] - curves["ADMM 70%"][mid]);
  check.expect(same_sparsity_gap < 0.15,
               "equal-sparsity pruning families behave alike (gap < 15pt)");
  bool dense_degrades = dense_curve.back() < dense_curve.front();
  check.expect(dense_degrades, "dense accuracy collapses at high failure rates");
  check.summary();
  return 0;
}
