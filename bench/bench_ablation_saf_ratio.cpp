// Ablation A1: how the SA0:SA1 split shapes the damage (design-choice ablation
// for DESIGN.md §4). The paper fixes P_sa0:P_sa1 = 1.75:9.04 (mostly
// stuck-on); this bench evaluates a pretrained model under all-stuck-off,
// the paper split, a uniform split, and all-stuck-on defects.
#include <cstdio>

#include "bench_common.hpp"

int main() {
  using namespace ftpim;
  using namespace ftpim::bench;
  Experiment exp(ExperimentConfig{.classes = 10,
                                  .resnet_depth = 20,
                                  .scale = run_scale(),
                                  .seed = bench_seed(2028),
                                  .verbose = false});
  print_preamble("Ablation A1 (SA0:SA1 ratio)", exp);

  auto model = exp.fresh_model();
  const double clean = exp.pretrain(*model);
  std::printf("pretrained acc=%.2f%%\n", clean * 100.0);

  const std::vector<double> rates = {0.001, 0.005, 0.01, 0.05};
  TablePrinter table("Acc_defect (%) by SA0 fraction", rate_headers("SA0 fraction", rates));

  struct Split {
    const char* name;
    double sa0_fraction;
  };
  std::map<std::string, std::vector<double>> curves;
  DefectEvalConfig cfg = exp.defect_eval_config();
  for (const Split s : {Split{"all SA0 (stuck-off)", 1.0},
                        Split{"paper 1.75:9.04", kPaperSa0Fraction},
                        Split{"uniform 1:1", 0.5},
                        Split{"all SA1 (stuck-on)", 0.0}}) {
    cfg.sa0_fraction = s.sa0_fraction;
    std::vector<double> accs;
    for (const double rate : rates) {
      accs.push_back(evaluate_under_defects(*model, exp.test_data(), rate, cfg).mean_acc);
    }
    table.add_row(s.name, to_percent(accs));
    curves[s.name] = accs;
  }
  std::printf("\n%s\n", table.render().c_str());

  ShapeCheck check;
  // Stuck-off zeroes cells (mild, prune-like); stuck-on saturates weights to
  // +/- w_max (harsh). The paper split is stuck-on-dominated, so it should
  // hurt much more than all-SA0 and track all-SA1 closely.
  const std::size_t hi = rates.size() - 1;
  check.expect(curves["all SA0 (stuck-off)"][hi] >= curves["all SA1 (stuck-on)"][hi],
               "stuck-off-only defects are milder than stuck-on-only");
  check.expect(curves["paper 1.75:9.04"][hi] <= curves["uniform 1:1"][hi] + 0.02,
               "paper split (stuck-on dominated) is at least as harsh as uniform");
  check.summary();
  return 0;
}
