// Fleet-at-scale sweep throughput: how fast the fault-lifecycle simulator
// (src/fleet) pushes a large virtual fleet to its horizon, what the four
// repair policies buy in survival vs maintenance cost on an identical fleet,
// and how much heap each device costs.
//
// The first table is the policy comparison DESIGN.md §15 describes
// (survival, mean lifetime, maintenance bill per policy on bit-identical
// devices). The second prices a device in memory: the heap a
// FleetSimulator's construction adds (glibc mallinfo2 in-use bytes, before
// vs after), per device, for an all-float and a 75%-quantized fleet, next to
// that fleet's device-ticks/s under canary-gated repair. The JSON artifact
// records both — wall seconds, device-ticks per second and heap bytes per
// device — so fleet-scale regressions show up in diffs (BENCH_fleet.json is
// a committed artifact like BENCH_serve.json).
#include <malloc.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/common/config.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/core/table_printer.hpp"
#include "src/fleet/fleet_simulator.hpp"
#include "src/models/mlp.hpp"

namespace {

using namespace ftpim;
using namespace ftpim::fleet;

/// Heap bytes in use: arena chunks plus mmapped blocks.
double heap_in_use() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

FleetConfig sweep_config(int devices, std::int64_t ticks, RepairPolicyKind policy) {
  FleetConfig cfg;
  cfg.num_devices = devices;
  cfg.ticks = ticks;
  cfg.sample_shape = {16};
  cfg.probe_samples = 16;
  cfg.accuracy_floor = 0.55;
  cfg.interval_batches = 16;
  cfg.p_transient_per_tick = 0.002;
  cfg.seed = 2024;
  cfg.profile.p_sa_min = 0.01;
  cfg.profile.p_sa_max = 0.08;
  cfg.profile.aging_min = 0.001;
  cfg.profile.aging_max = 0.01;
  cfg.profile.traffic_min = 8;
  cfg.profile.traffic_max = 32;
  cfg.profile.quantized_fraction = 0.75;
  cfg.policy = policy;
  cfg.policy_config.refresh_every_ticks = 4;
  cfg.policy_config.max_scrub_retries = 1;
  cfg.quantized.adc.bits = 0;
  return cfg;
}

struct PolicyResult {
  FleetSummary summary;
  double wall_s = 0.0;
  double device_ticks_per_s = 0.0;
};

}  // namespace

int main() {
  const RunScale scale = run_scale();
  const int devices =
      env_int_in("FTPIM_FLEET_DEVICES", scale.name == "quick" ? 256 : 1000, 1, 1000000);
  const auto ticks = static_cast<std::int64_t>(env_int_in("FTPIM_FLEET_TICKS", 16, 1, 1000000));

  std::printf("=== fleet lifecycle sweep: %d devices x %lld ticks per policy ===\n", devices,
              static_cast<long long>(ticks));
  std::printf("model: MLP 16-24-4 | scale: %s | threads: %d\n\n", scale.name.c_str(),
              num_threads());

  const auto model = make_mlp({16, 24, 4}, 7);

  bench::BenchJsonWriter json("fleet");
  json.meta()
      .num("threads", num_threads())
      .num("devices", devices)
      .num("ticks", static_cast<double>(ticks))
      .str("scale", scale.name);

  TablePrinter table("policy comparison (identical fleet per row)",
                     {"policy", "surv%", "life", "repairs", "scrubs", "cost", "p50acc", "wall_s",
                      "devtick/s"});
  std::vector<PolicyResult> results;
  for (const RepairPolicyKind policy : kAllRepairPolicies) {
    FleetSimulator sim(*model, sweep_config(devices, ticks, policy));
    Timer wall;
    PolicyResult res;
    res.summary = sim.run();
    res.wall_s = wall.seconds();
    res.device_ticks_per_s =
        static_cast<double>(devices) * static_cast<double>(ticks) / res.wall_s;
    results.push_back(res);

    table.add_row(to_string(policy),
                  {res.summary.survival_fraction * 100.0, res.summary.mean_lifetime_ticks,
                   static_cast<double>(res.summary.repairs),
                   static_cast<double>(res.summary.scrubs), res.summary.total_cost,
                   res.summary.final_acc_p50, res.wall_s, res.device_ticks_per_s});
    json.point()
        .str("policy", to_string(policy))
        .num("devices", devices)
        .num("ticks", static_cast<double>(ticks))
        .num("survival_fraction", res.summary.survival_fraction)
        .num("mean_lifetime_ticks", res.summary.mean_lifetime_ticks)
        .num("repairs", static_cast<double>(res.summary.repairs))
        .num("scrubs", static_cast<double>(res.summary.scrubs))
        .num("total_cost", res.summary.total_cost)
        .num("wall_seconds", res.wall_s)
        .num("device_ticks_per_sec", res.device_ticks_per_s);
  }
  std::printf("%s\n", table.render(0, 2).c_str());

  TablePrinter memory("heap per device (FleetSimulator construction), canary_gated",
                      {"fleet", "heapB/dev", "devtick/s"});
  std::vector<double> heap_per_device;
  for (const double quantized_fraction : {0.0, 0.75}) {
    FleetConfig cfg = sweep_config(devices, ticks, RepairPolicyKind::kCanaryGated);
    cfg.profile.quantized_fraction = quantized_fraction;
    const char* name = quantized_fraction == 0.0 ? "float" : "mixed";
    const double before = heap_in_use();
    FleetSimulator sim(*model, cfg);
    const double per_device = (heap_in_use() - before) / static_cast<double>(devices);
    Timer wall;
    (void)sim.run();
    const double rate = static_cast<double>(devices) * static_cast<double>(ticks) / wall.seconds();
    heap_per_device.push_back(per_device);
    memory.add_row(name, {per_device, rate});
    json.point()
        .str("fleet", name)
        .str("policy", to_string(RepairPolicyKind::kCanaryGated))
        .num("devices", devices)
        .num("ticks", static_cast<double>(ticks))
        .num("quantized_fraction", quantized_fraction)
        .num("heap_bytes_per_device", per_device)
        .num("device_ticks_per_sec", rate);
  }
  std::printf("%s\n", memory.render(0, 0).c_str());

  // Shape checks: the qualitative policy ordering the fleet story predicts.
  bench::ShapeCheck check;
  const FleetSummary& never = results[0].summary;       // kNeverRepair
  const FleetSummary& gated = results[1].summary;       // kCanaryGated
  const FleetSummary& scheduled = results[2].summary;   // kScheduledRefresh
  const FleetSummary& detection = results[3].summary;   // kDetectionDrivenScrub
  check.expect(never.total_cost == 0.0, "never_repair spends nothing on maintenance");
  check.expect(never.survival_fraction < 1.0, "unmaintained fleet loses devices");
  check.expect(gated.survival_fraction >= never.survival_fraction,
               "canary-gated repair survives at least the unmaintained fleet");
  check.expect(gated.mean_lifetime_ticks >= never.mean_lifetime_ticks,
               "repairs extend mean device lifetime");
  check.expect(scheduled.scrubs > 0, "scheduled policy actually refreshes");
  check.expect(detection.detections > 0, "quantized devices ring under faults");
  check.expect(heap_per_device[0] > 0.0 && heap_per_device[0] < heap_per_device[1],
               "a float device costs heap, and less than a quantized one");
  check.summary();

  json.write(env_string("FTPIM_BENCH_JSON", "BENCH_fleet.json"));
  return check.failed == 0 ? 0 : 1;
}
