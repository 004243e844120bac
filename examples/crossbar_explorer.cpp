// Cell-level crossbar tour: program a weight matrix onto tiled ReRAM
// crossbars, inject per-device defects, and compare the analog MVM against
// the ideal digital result — including the agreement between the cell-level
// engine and the fast weight-space injector used during training.
#include <cmath>
#include <cstdio>
#include <vector>

#include "src/common/config.hpp"
#include "src/common/rng.hpp"
#include "src/reram/crossbar_engine.hpp"
#include "src/reram/fault_injector.hpp"
#include "src/tensor/gemm.hpp"
#include "src/tensor/tensor.hpp"

namespace {

using namespace ftpim;

double rel_error(const std::vector<float>& a, const std::vector<float>& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - b[i]) * (a[i] - b[i]);
    den += b[i] * b[i];
  }
  return std::sqrt(num / (den + 1e-12));
}

}  // namespace

int main() {
  using namespace ftpim;
  const std::int64_t out = env_int_in("FTPIM_OUT", 96, 1, 65536);
  const std::int64_t in = env_int_in("FTPIM_IN", 200, 1, 65536);

  // A random "layer" to deploy.
  Tensor w(Shape{out, in});
  Rng rng(42);
  for (std::int64_t i = 0; i < w.numel(); ++i) w[i] = 0.2f * rng.normal();

  CrossbarEngineConfig cfg;
  cfg.tile_rows = 128;
  cfg.tile_cols = 128;
  CrossbarEngine engine(w, cfg);
  std::printf("weight matrix [%lld x %lld] -> %lld crossbar tiles (%lld cells)\n",
              static_cast<long long>(out), static_cast<long long>(in),
              static_cast<long long>(engine.tile_count()),
              static_cast<long long>(engine.total_cells()));

  std::vector<float> x(static_cast<std::size_t>(in));
  for (auto& v : x) v = rng.uniform(-1.0f, 1.0f);
  std::vector<float> y_ideal(static_cast<std::size_t>(out), 0.0f);
  gemm(out, 1, in, 1.0f, w.data(), x.data(), 0.0f, y_ideal.data());

  std::vector<float> y_xbar(static_cast<std::size_t>(out));
  engine.mvm(x.data(), y_xbar.data());
  std::printf("defect-free crossbar MVM vs ideal GEMM: rel. error %.2e\n\n",
              rel_error(y_xbar, y_ideal));

  std::printf("%-8s %-12s %-14s %-12s\n", "P_sa", "stuck cells", "MVM rel.err", "readback L2");
  for (const double p_sa : {0.001, 0.01, 0.05, 0.1}) {
    engine.clear_defects();
    // Re-program: stuck cells from previous device are cleared, fresh die.
    CrossbarEngine device(w, cfg);
    device.apply_device_defects(StuckAtFaultModel(p_sa), /*master_seed=*/7,
                                /*device_index=*/static_cast<std::uint64_t>(p_sa * 1e6));
    device.mvm(x.data(), y_xbar.data());
    const Tensor w_eff = device.read_back();
    double diff = 0.0;
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      diff += (w_eff[i] - w[i]) * (w_eff[i] - w[i]);
    }
    std::printf("%-8g %-12lld %-14.3e %-12.4f\n", p_sa,
                static_cast<long long>(device.stuck_cells()), rel_error(y_xbar, y_ideal),
                std::sqrt(diff));
  }

  // Fast path equivalence: weight-space injector matches cell-level stats.
  Tensor w_fast = w;
  Rng inj_rng(123);
  const InjectionStats stats =
      apply_stuck_at_faults(w_fast, StuckAtFaultModel(0.05), InjectorConfig{}, inj_rng);
  std::printf("\nweight-space injector at P_sa=0.05: %lld/%lld cells faulted (rate %.4f)\n",
              static_cast<long long>(stats.faulted_cells), static_cast<long long>(stats.cells),
              stats.cell_fault_rate());
  return 0;
}
