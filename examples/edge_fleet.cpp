// Edge-fleet deployment scenario (the paper's motivating use case):
// one fault-tolerant model is trained ONCE and shipped to a fleet of
// mass-produced devices, each with its own random defect map — no
// per-device retraining. Reports the fleet accuracy distribution and the
// fraction of devices meeting a quality bar, FT vs non-FT.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/common/config.hpp"
#include "src/core/evaluator.hpp"
#include "src/core/ft_trainer.hpp"
#include "src/core/trainer.hpp"
#include "src/data/synthetic.hpp"
#include "src/models/resnet.hpp"

namespace {

using namespace ftpim;

struct FleetReport {
  double mean, p10, p50, p90;
  double yield;  ///< fraction of devices within 2pt of clean accuracy
};

FleetReport fleet_eval(Module& model, const Dataset& test, double p_sa, int devices,
                       double clean_acc) {
  DefectEvalConfig cfg;
  cfg.num_runs = devices;
  cfg.seed = 31337;
  const DefectEvalResult r = evaluate_under_defects(model, test, p_sa, cfg);
  std::vector<double> accs = r.run_accs;
  std::sort(accs.begin(), accs.end());
  auto pct = [&accs](double q) {
    const auto idx = static_cast<std::size_t>(q * static_cast<double>(accs.size() - 1));
    return accs[idx];
  };
  int good = 0;
  for (const double a : accs) {
    if (a >= clean_acc - 0.02) ++good;
  }
  return FleetReport{r.mean_acc, pct(0.10), pct(0.50), pct(0.90),
                     static_cast<double>(good) / static_cast<double>(accs.size())};
}

void print_report(const char* name, const FleetReport& r) {
  std::printf("%-18s mean %.2f%% | p10 %.2f%% | p50 %.2f%% | p90 %.2f%% | yield %.0f%%\n", name,
              r.mean * 100.0, r.p10 * 100.0, r.p50 * 100.0, r.p90 * 100.0, r.yield * 100.0);
}

}  // namespace

int main() {
  using namespace ftpim;
  const int devices = env_int_in("FTPIM_DEVICES", 25, 1, 100000);
  const double p_sa = env_double_in("FTPIM_PSA", 0.01, 0.0, 1.0);

  SynthVisionConfig data_cfg;
  data_cfg.num_classes = 10;
  data_cfg.image_size = 16;
  data_cfg.samples = env_int_in("FTPIM_TRAIN", 1024, 1, kMaxSamples);
  const auto train = make_synthvision(data_cfg, 1);
  data_cfg.samples = env_int_in("FTPIM_TEST", 512, 1, kMaxSamples);
  const auto test = make_synthvision(data_cfg, 2);

  auto model = make_resnet20(10, /*base_width=*/8, /*seed=*/1);
  TrainConfig tc;
  tc.epochs = env_int_in("FTPIM_EPOCHS", 4, 1, kMaxEpochs);
  Trainer(*model, *train, tc).run();
  const double clean = evaluate_accuracy(*model, *test);
  std::printf("factory model accuracy (no defects): %.2f%%\n", clean * 100.0);
  std::printf("simulated fleet: %d devices at per-cell failure rate %.3f\n\n", devices, p_sa);

  print_report("without FT:", fleet_eval(*model, *test, p_sa, devices, clean));

  // Progressive FT training to the deployment rate.
  FtTrainConfig ft;
  ft.base = tc;
  ft.base.epochs = std::max(1, tc.epochs / 4);
  ft.scheme = FtScheme::kProgressive;
  ft.target_p_sa = p_sa;
  FaultTolerantTrainer(*model, *train, ft).run();
  const double clean_ft = evaluate_accuracy(*model, *test);
  std::printf("\nafter progressive FT training (clean %.2f%%):\n", clean_ft * 100.0);
  print_report("with FT:", fleet_eval(*model, *test, p_sa, devices, clean));
  return 0;
}
