// Reproduces Table I (top): CIFAR-10, ResNet-20 — accuracy of FT models
// trained at different P_sa^T, evaluated across target testing SAF rates.
#include "table1_runner.hpp"

int main() {
  using namespace ftpim;
  using namespace ftpim::bench;
  Experiment exp(ExperimentConfig{.classes = 10,
                                  .resnet_depth = 20,
                                  .scale = run_scale(),
                                  .seed = bench_seed(2024),
                                  .verbose = false});
  const Table1Result result = run_table1(exp, "Table I (CIFAR-10, ResNet-20)");
  check_table1_shape(result);
  return 0;
}
