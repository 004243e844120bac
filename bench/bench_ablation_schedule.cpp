// Ablation A3: progressive ramp shape. The paper trains with an ascending
// P_sa list; this bench compares the default geometric ramp against a linear
// ramp, a two-stage ramp, and a descending (anti-curriculum) ramp, all at the
// same epoch budget and target P_sa^T = 0.1.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ftpim;
  using namespace ftpim::bench;
  Experiment exp(ExperimentConfig{.classes = 10,
                                  .resnet_depth = 20,
                                  .scale = run_scale(),
                                  .seed = bench_seed(2030),
                                  .verbose = false});
  print_preamble("Ablation A3 (progressive schedule shape)", exp);

  auto pretrained = exp.fresh_model();
  const double clean = exp.pretrain(*pretrained);
  std::printf("pretrained acc=%.2f%%\n", clean * 100.0);

  const double target = 0.1;
  const std::vector<double> rates = {0, 0.01, 0.05, 0.1, 0.2};
  TablePrinter table("Acc (%) after progressive FT training to P_sa^T=0.1",
                     rate_headers("Ramp", rates));

  struct Ramp {
    const char* name;
    std::vector<double> levels;
  };
  std::vector<Ramp> ramps{Ramp{"geometric /8 /4 /2 /1", default_progressive_ramp(target)},
                          Ramp{"linear .025 .05 .075 .1", {0.025, 0.05, 0.075, 0.1}},
                          Ramp{"flat (one-shot x4)", {target, target, target, target}}};
  if (run_scale().name != "quick") {
    ramps.push_back(Ramp{"two-stage .05 .1", {0.05, target, target, target}});
  }
  std::map<std::string, std::vector<double>> curves;
  for (const Ramp& ramp : ramps) {
    auto model = exp.clone_model(*pretrained);
    FtTrainConfig ft;
    ft.base = exp.base_train_config();
    ft.base.sgd.lr = 0.05f;  // retraining regime (matches Experiment::ft_variant)
    ft.base.epochs = std::max(1, ft.base.epochs / 4);  // same budget as 4-stage ramps
    ft.scheme = FtScheme::kProgressive;
    ft.target_p_sa = target;
    ft.progressive_levels = ramp.levels;
    ft.fault_seed = 888;
    FaultTolerantTrainer trainer(*model, exp.train_data(), ft);
    trainer.run();
    const std::vector<double> accs = exp.sweep_rates(*model, rates);
    table.add_row(ramp.name, to_percent(accs));
    curves[ramp.name] = accs;
    std::printf("  %s done (clean %.2f%%)\n", ramp.name, accs.front() * 100.0);
  }
  std::printf("\n%s\n", table.render().c_str());

  ShapeCheck check;
  DefectEvalConfig cfg = exp.defect_eval_config();
  const double baseline_at_target =
      evaluate_under_defects(*pretrained, exp.test_data(), target, cfg).mean_acc;
  bool all_beat = true;
  for (const auto& [name, accs] : curves) {
    if (accs[3] <= baseline_at_target) all_beat = false;
  }
  check.expect(all_beat, "every ramp beats the non-FT baseline at the target rate");
  // Ascending ramps should preserve clean accuracy at least as well as flat.
  const double best_ascending_clean =
      std::max(curves["geometric /8 /4 /2 /1"][0], curves["linear .025 .05 .075 .1"][0]);
  check.expect(best_ascending_clean + 0.02 >= curves["flat (one-shot x4)"][0],
               "an ascending ramp keeps clean accuracy at least on par with flat (2pt tol)");
  check.summary();
  return 0;
}
