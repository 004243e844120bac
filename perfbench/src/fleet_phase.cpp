// Fleet phase: the fault-lifecycle simulator pushed to a fixed horizon.
//
// A heterogeneous fleet of MLP 16-24-4 devices ages, takes transient upsets,
// is probed, scrubbed and repaired every tick: 75% quantized devices under
// the detection-driven scrub policy on the quantized workload, an all-float
// fleet under canary-gated repair on the float workload.
// The simulated outcome is a pure function of the config, so its statistics
// are compared exactly against perfbench/fleet_reference.json by run.py: a
// faster simulator must leave them identical. Device-ticks per CPU second
// of host time is the end-to-end figure; the traced run times each
// FleetSimulator::step().
#include <cstdio>

#include "perfbench/src/common.hpp"
#include "perfbench/src/stats.hpp"
#include "src/fleet/fleet_simulator.hpp"
#include "src/models/mlp.hpp"

namespace perfbench {
namespace {

using namespace ftpim;
using namespace ftpim::fleet;

constexpr std::int64_t kTicks = 48;
/// The fleet is a fixed job, not drawn from --seed: the simulated outcome
/// (and with it the work per device-tick) swings by 2x between fleet seeds.
constexpr std::uint64_t kFleetSeed = 2024;

class FleetPhase final : public Phase {
 public:
  FleetPhase(const Workload& w, const Options& o) : w_(w), o_(o) {}


  void setup() override {
    sim_.reset();
    model_ = make_mlp({16, 24, 4}, 7);
    sim_ = std::make_unique<FleetSimulator>(*model_, config());
  }

  void run(Report& report) override {
    // The horizon runs kRounds times on freshly built, identical fleets; the
    // metric is the median round, timed on the process CPU clock (see
    // cpu_now_ns). The traced run does one round and times every step().
    std::vector<double> tick_ms, rate_cpu, rate_wall;
    std::vector<std::int64_t> first_deaths;
    FleetSummary s;
    std::int64_t deaths = 0;
    bool repeatable = true;
    const double device_ticks = static_cast<double>(devices()) * static_cast<double>(kTicks);
    for (int round = 0; round < (o_.trace ? 1 : kRounds); ++round) {
      if (round > 0) sim_ = std::make_unique<FleetSimulator>(*model_, config());
      const std::int64_t start = now_ns(), cpu_start = cpu_now_ns();
      while (sim_->next_tick() < kTicks) {
        const std::int64_t t = now_ns();
        sim_->step();
        tick_ms.push_back(static_cast<double>(now_ns() - t) * 1e-6);
      }
      rate_cpu.push_back(device_ticks / (static_cast<double>(cpu_now_ns() - cpu_start) * 1e-9));
      rate_wall.push_back(device_ticks / seconds_since(start));
      if (round == 0) {
        s = sim_->summary();
        first_deaths = sim_->death_ticks();
        for (const TickAggregate& t : sim_->timeline()) deaths += t.deaths;
      }
      repeatable = repeatable && sim_->death_ticks() == first_deaths;
    }
    if (o_.trace) {
      report.metric("fleet.tick_ms.p50", percentile(tick_ms, 50.0), "ms");
      report.metric("fleet.tick_ms.p99", percentile(tick_ms, 99.0), "ms");
      report.metric("fleet.repairs", static_cast<double>(s.repairs), "count");
      report.metric("fleet.scrubs", static_cast<double>(s.scrubs), "count");
      report.metric("fleet.detections", static_cast<double>(s.detections), "count");
      report.metric("fleet.deaths", static_cast<double>(deaths), "count");
    } else {
      report.metric("device_ticks_per_s", median(rate_cpu), "1/s");
    }
    report.fact("fleet.cpu_device_ticks_per_s.rounds", join(rate_cpu));
    report.fact("fleet.wall_device_ticks_per_s.rounds", join(rate_wall));
    report.check("fleet.repeatable", repeatable, "every round's fleet dies on the same ticks");
    char stats[512];
    std::snprintf(stats, sizeof(stats),
                  "{\"fleet_seed\": %llu, \"devices\": %d, \"ticks\": %lld, \"survivors\": %lld, "
                  "\"survival_fraction\": %.17g, \"mean_lifetime_ticks\": %.17g, "
                  "\"repairs\": %lld, \"scrubs\": %lld, \"detections\": %lld, "
                  "\"deaths\": %lld, \"total_cost\": %.17g, \"final_acc_p50\": %.17g}",
                  static_cast<unsigned long long>(kFleetSeed), s.devices,
                  static_cast<long long>(s.ticks), static_cast<long long>(s.survivors),
                  s.survival_fraction, s.mean_lifetime_ticks, static_cast<long long>(s.repairs),
                  static_cast<long long>(s.scrubs), static_cast<long long>(s.detections),
                  static_cast<long long>(deaths), s.total_cost, s.final_acc_p50);
    report.raw_fact("fleet.stats", stats);
    report.ops(static_cast<std::int64_t>(device_ticks) * static_cast<std::int64_t>(rate_cpu.size()), 0);
    report.check("fleet.horizon_reached", s.ticks == kTicks && s.devices == devices(),
                 "simulated every device to the horizon");
  }

 private:
  /// Float devices tick ~10x faster (no int8 engines, no ABFT), so the
  /// float fleet is larger to give both workloads seconds of simulation.
  [[nodiscard]] int devices() const { return w_.quantized ? 256 : 2048; }

  [[nodiscard]] FleetConfig config() const {
    FleetConfig cfg;
    cfg.num_devices = devices();
    cfg.ticks = kTicks;
    cfg.sample_shape = {16};
    cfg.probe_samples = 16;
    cfg.accuracy_floor = 0.55;
    cfg.interval_batches = 16;
    cfg.p_transient_per_tick = 0.002;
    cfg.seed = kFleetSeed;
    cfg.profile.p_sa_min = 0.01;
    cfg.profile.p_sa_max = 0.08;
    cfg.profile.aging_min = 0.001;
    cfg.profile.aging_max = 0.01;
    cfg.profile.traffic_min = 8;
    cfg.profile.traffic_max = 32;
    cfg.profile.quantized_fraction = w_.quantized ? 0.75 : 0.0;
    // Quantized devices carry ABFT checksums, so they are maintained on
    // detections; float devices have no detector and are repaired on their
    // probe-accuracy window instead.
    cfg.policy = w_.quantized ? RepairPolicyKind::kDetectionDrivenScrub : RepairPolicyKind::kCanaryGated;
    cfg.policy_config.refresh_every_ticks = 4;
    cfg.policy_config.max_scrub_retries = 1;
    cfg.quantized.adc.bits = 0;
    return cfg;
  }

  const Workload& w_;
  const Options& o_;
  std::unique_ptr<Sequential> model_;
  std::unique_ptr<FleetSimulator> sim_;
};

}  // namespace

std::unique_ptr<Phase> make_fleet_phase(const Workload& w, const Options& o) {
  return std::make_unique<FleetPhase>(w, o);
}

}  // namespace perfbench
