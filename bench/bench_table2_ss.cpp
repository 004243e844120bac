// Reproduces Table II: Accuracy and Stability Score (SS) of fault-tolerant
// models derived from the pretrained and ADMM-pruned (70% sparsity)
// ResNet-32 models, at target testing failure rates 0.01 and 0.02.
#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "src/core/stability.hpp"
#include "src/core/trainer.hpp"
#include "src/prune/admm_pruner.hpp"
#include "src/prune/sparsity.hpp"

namespace {

using namespace ftpim;
using namespace ftpim::bench;

/// ADMM-prunes `model` to `sparsity` with masked fine-tuning; returns the
/// clean post-pruning accuracy.
double admm_prune_and_finetune(Experiment& exp, Sequential& model, double sparsity) {
  TrainConfig tc = exp.base_train_config();
  tc.sgd.lr = 0.01f;  // fine-tune regime
  AdmmPruner pruner(model, AdmmConfig{.sparsity = sparsity, .rho = 1e-2f});
  {
    Trainer trainer(model, exp.train_data(), tc);
    TrainHooks hooks;
    hooks.after_backward = [&pruner](int, std::int64_t) { pruner.regularize_grads(); };
    hooks.after_epoch = [&pruner](int, float) { pruner.dual_update(); };
    trainer.set_hooks(hooks);
    trainer.run();
  }
  const std::vector<PruneMask> masks = pruner.finalize();
  {
    Trainer trainer(model, exp.train_data(), tc);
    for (const PruneMask& m : masks) trainer.optimizer().set_mask(m.param, m.mask);
    trainer.run();
  }
  return evaluate_accuracy(model, exp.test_data());
}

struct SsRow {
  std::string label;
  double retrain, defect_01, defect_02, ss_01, ss_02;
};

void run_block(Experiment& exp, Sequential& base_model, double acc_pretrain,
               const std::string& block_name, std::vector<SsRow>& rows) {
  const DefectEvalConfig eval_cfg = exp.defect_eval_config();

  auto eval_row = [&](Sequential& model, const std::string& label) {
    const double retrain = evaluate_accuracy(model, exp.test_data());
    const double d01 = evaluate_under_defects(model, exp.test_data(), 0.01, eval_cfg).mean_acc;
    const double d02 = evaluate_under_defects(model, exp.test_data(), 0.02, eval_cfg).mean_acc;
    rows.push_back(SsRow{
        label, retrain, d01, d02,
        stability_score({acc_pretrain, retrain, d01}),
        stability_score({acc_pretrain, retrain, d02})});
  };

  std::printf("[%s] baseline row...\n", block_name.c_str());
  eval_row(base_model, block_name + " / no FT");
  // The paper's Table II spans {0.01, 0.05, 0.1} x {one-shot, progressive};
  // quick scale runs a representative subset (full grid under FTPIM_SCALE=full).
  struct Variant {
    FtScheme scheme;
    double rate;
  };
  std::vector<Variant> variants{{FtScheme::kOneShot, 0.01},
                                {FtScheme::kOneShot, 0.05},
                                {FtScheme::kProgressive, 0.1}};
  if (run_scale().name == "full") {
    variants = {{FtScheme::kOneShot, 0.01},    {FtScheme::kOneShot, 0.05},
                {FtScheme::kOneShot, 0.1},     {FtScheme::kProgressive, 0.01},
                {FtScheme::kProgressive, 0.05}, {FtScheme::kProgressive, 0.1}};
  }
  for (const Variant v : variants) {
    const char* tag = v.scheme == FtScheme::kOneShot ? "One-Shot" : "Progressive";
    std::printf("[%s] %s P_sa^T=%g...\n", block_name.c_str(), tag, v.rate);
    auto ft = exp.ft_variant(base_model, v.scheme, v.rate);
    char label[96];
    std::snprintf(label, sizeof(label), "%s / %s P_sa^T=%g", block_name.c_str(), tag, v.rate);
    eval_row(*ft, label);
  }
}

}  // namespace

int main() {
  Experiment exp(ExperimentConfig{.classes = 100,
                                  .resnet_depth = 32,
                                  .scale = run_scale(),
                                  .seed = bench_seed(2026),
                                  .verbose = false});
  print_preamble("Table II (SS, CIFAR-100, ResNet-32, dense + ADMM-pruned 70%)", exp);

  auto pretrained = exp.fresh_model();
  const double acc_pretrain = exp.pretrain(*pretrained);
  std::printf("pretrained acc=%.2f%%\n", acc_pretrain * 100.0);

  std::vector<SsRow> rows;
  run_block(exp, *pretrained, acc_pretrain, "Pretrained", rows);

  auto pruned = exp.clone_model(*pretrained);
  const double acc_pruned = admm_prune_and_finetune(exp, *pruned, 0.70);
  std::printf("ADMM-pruned (70%%) acc=%.2f%%, sparsity=%.1f%%\n", acc_pruned * 100.0,
              model_sparsity(*pruned) * 100.0);
  std::vector<SsRow> pruned_rows;
  run_block(exp, *pruned, acc_pruned, "ADMM-70%", pruned_rows);

  TablePrinter table("Table II — Accuracy (%) and Stability Score",
                     {"Method", "Acc_retrain", "Acc_def(0.01)", "Acc_def(0.02)", "SS(0.01)",
                      "SS(0.02)"});
  for (const auto* block : {&rows, &pruned_rows}) {
    for (const SsRow& r : *block) {
      table.add_row(r.label, {r.retrain * 100.0, r.defect_01 * 100.0, r.defect_02 * 100.0,
                              r.ss_01, r.ss_02});
    }
  }
  std::printf("\n%s\n", table.render().c_str());

  ShapeCheck check;
  // Claim 1: FT training dramatically improves SS over the no-FT baseline.
  bool ft_improves = true;
  for (const auto* block : {&rows, &pruned_rows}) {
    for (std::size_t i = 1; i < block->size(); ++i) {
      if ((*block)[i].ss_01 <= (*block)[0].ss_01) ft_improves = false;
    }
  }
  check.expect(ft_improves, "every FT variant improves SS(0.01) over its no-FT baseline");
  // Claim 2: pruned models are more fragile: baseline pruned SS <= dense SS
  // and pruned Acc_defect collapses at 0.01.
  check.expect(pruned_rows[0].defect_01 <= rows[0].defect_01 + 0.02,
               "pruned baseline is at most as robust as dense baseline at rate 0.01");
  // Claim 3: for the pruned block, larger P_sa^T gives higher SS (paper
  // finding 2: 0.1 over 0.01 by ~2x). Tolerate small-sample noise.
  check.expect(pruned_rows.back().ss_01 >= pruned_rows[1].ss_01 * 0.9,
               "pruned: largest-P_sa^T variant's SS >= smallest's (10% tolerance)");
  check.summary();
  return 0;
}
