// Ablation A2: fault-pattern refresh granularity during FT training.
// Algorithm 1 draws Apply_Fault once per epoch; per-iteration redraws see
// more fault patterns per epoch. Also contrasts straight-through vs masked
// gradients at the faulted positions.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ftpim;
  using namespace ftpim::bench;
  Experiment exp(ExperimentConfig{.classes = 10,
                                  .resnet_depth = 20,
                                  .scale = run_scale(),
                                  .seed = bench_seed(2029),
                                  .verbose = false});
  print_preamble("Ablation A2 (fault refresh granularity x grad mode)", exp);

  auto pretrained = exp.fresh_model();
  const double clean = exp.pretrain(*pretrained);
  std::printf("pretrained acc=%.2f%%\n", clean * 100.0);

  const double target = 0.05;
  const std::vector<double> rates = {0, 0.01, 0.05, 0.1};
  TablePrinter table("Acc (%) after one-shot FT training at P_sa^T=0.05",
                     rate_headers("Variant", rates));

  struct Variant {
    const char* name;
    FaultRefresh refresh;
    GradMode grad;
  };
  std::vector<Variant> variants{
      Variant{"per-epoch, straight-through", FaultRefresh::kPerEpoch,
              GradMode::kStraightThrough},
      Variant{"per-iteration, straight-through", FaultRefresh::kPerIteration,
              GradMode::kStraightThrough}};
  if (run_scale().name != "quick") {
    variants.push_back(Variant{"per-epoch, masked-grad", FaultRefresh::kPerEpoch,
                               GradMode::kMasked});
    variants.push_back(Variant{"per-iteration, masked-grad", FaultRefresh::kPerIteration,
                               GradMode::kMasked});
  }
  std::map<std::string, std::vector<double>> curves;
  for (const Variant& v : variants) {
    auto model = exp.clone_model(*pretrained);
    FtTrainConfig ft;
    ft.base = exp.base_train_config();
    ft.base.sgd.lr = 0.05f;  // retraining regime (matches Experiment::ft_variant)
    ft.scheme = FtScheme::kOneShot;
    ft.target_p_sa = target;
    ft.refresh = v.refresh;
    ft.grad_mode = v.grad;
    ft.fault_seed = 777;
    FaultTolerantTrainer trainer(*model, exp.train_data(), ft);
    trainer.run();
    const std::vector<double> accs = exp.sweep_rates(*model, rates);
    table.add_row(v.name, to_percent(accs));
    curves[v.name] = accs;
    std::printf("  %s done (clean %.2f%%)\n", v.name, accs.front() * 100.0);
  }
  std::printf("\n%s\n", table.render().c_str());

  ShapeCheck check;
  // All variants should beat the untrained baseline at the target rate.
  DefectEvalConfig cfg = exp.defect_eval_config();
  const double baseline_at_target =
      evaluate_under_defects(*pretrained, exp.test_data(), target, cfg).mean_acc;
  bool all_beat = true;
  for (const auto& [name, accs] : curves) {
    if (accs[2] <= baseline_at_target) all_beat = false;
  }
  check.expect(all_beat, "every FT variant beats the non-FT baseline at the trained rate");
  check.summary();
  return 0;
}
