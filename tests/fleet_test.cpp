// Fleet-at-scale lifecycle simulator: policy decisions, deterministic
// heterogeneous profiles, survival analysis math, thread-count invariance of
// whole sweeps, and the transient-heal/persistent-return refresh semantics.
// Suite names start with Fleet* so scripts/ci.sh's TSan leg picks them up.
#include "src/fleet/fleet_simulator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/parallel.hpp"
#include "src/models/mlp.hpp"
#include "test_util.hpp"

namespace ftpim::fleet {
namespace {

/// Small heterogeneous fleet over a 16->24->4 MLP. Aggressive defect and
/// aging rates so lifecycles actually happen within a handful of ticks.
FleetConfig small_fleet(RepairPolicyKind policy) {
  FleetConfig cfg;
  cfg.num_devices = 12;
  cfg.ticks = 8;
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
  cfg.policy_config.window = 48;
  cfg.policy_config.min_samples = 16;
  cfg.policy_config.repair_below = 0.85;
  cfg.policy_config.refresh_every_ticks = 2;
  cfg.policy_config.max_scrub_retries = 1;
  cfg.quantized.adc.bits = 0;  // ideal readout: probe scores are exact
  return cfg;
}

std::unique_ptr<Module> fleet_model() { return make_mlp({16, 24, 4}, 7); }

std::vector<std::uint8_t> timeline_bytes(const FleetSimulator& sim) {
  ByteWriter out;
  for (const TickAggregate& agg : sim.timeline()) agg.encode(out);
  return out.take();
}

// --- RepairPolicy ------------------------------------------------------------

TEST(FleetPolicy, NamesRoundTripAndGarbageIsRejected) {
  for (RepairPolicyKind kind : kAllRepairPolicies) {
    EXPECT_EQ(parse_repair_policy(to_string(kind)), kind);
    EXPECT_EQ(make_repair_policy(kind, RepairPolicyConfig{})->kind(), kind);
  }
  EXPECT_THROW((void)parse_repair_policy("weekly_reboot"), ContractViolation);
  RepairPolicyConfig bad;
  bad.repair_below = 1.5;
  EXPECT_THROW((void)make_repair_policy(RepairPolicyKind::kCanaryGated, bad), ContractViolation);
}

TEST(FleetPolicy, DecisionsFollowTheStatusSurface) {
  RepairPolicyConfig cfg;
  cfg.min_samples = 4;
  cfg.repair_below = 0.8;
  cfg.refresh_every_ticks = 3;
  cfg.max_scrub_retries = 2;

  DeviceStatus healthy;
  healthy.window_score = 1.0;
  healthy.window_size = 10;

  DeviceStatus failing = healthy;
  failing.window_score = 0.5;

  DeviceStatus fresh_failing = failing;
  fresh_failing.window_size = 3;  // below the evidence gate

  const auto never = make_repair_policy(RepairPolicyKind::kNeverRepair, cfg);
  EXPECT_EQ(never->decide(failing), RepairActionKind::kNone);

  const auto gated = make_repair_policy(RepairPolicyKind::kCanaryGated, cfg);
  EXPECT_EQ(gated->decide(healthy), RepairActionKind::kNone);
  EXPECT_EQ(gated->decide(failing), RepairActionKind::kRepair);
  EXPECT_EQ(gated->decide(fresh_failing), RepairActionKind::kNone) << "min_samples gate";

  const auto scheduled = make_repair_policy(RepairPolicyKind::kScheduledRefresh, cfg);
  DeviceStatus due = healthy;
  due.ticks_since_heal = 3;
  EXPECT_EQ(scheduled->decide(healthy), RepairActionKind::kNone);
  EXPECT_EQ(scheduled->decide(due), RepairActionKind::kScrub);

  const auto driven = make_repair_policy(RepairPolicyKind::kDetectionDrivenScrub, cfg);
  DeviceStatus flagged = healthy;
  flagged.abft_flagged = true;
  flagged.consecutive_detections = 1;
  EXPECT_EQ(driven->decide(healthy), RepairActionKind::kNone);
  EXPECT_EQ(driven->decide(flagged), RepairActionKind::kScrub);
  flagged.consecutive_detections = 3;  // outlived max_scrub_retries = 2
  EXPECT_EQ(driven->decide(flagged), RepairActionKind::kRepair);
}

// --- Profiles ----------------------------------------------------------------

TEST(FleetProfile, DrawIsDeterministicAndInsideTheDeclaredRanges) {
  const FleetConfig cfg = small_fleet(RepairPolicyKind::kNeverRepair);
  for (int d = 0; d < cfg.num_devices; ++d) {
    const DeviceProfile a = draw_profile(cfg, d);
    const DeviceProfile b = draw_profile(cfg, d);
    EXPECT_EQ(a.p_sa, b.p_sa);
    EXPECT_EQ(a.aging_per_interval, b.aging_per_interval);
    EXPECT_EQ(a.batches_per_tick, b.batches_per_tick);
    EXPECT_EQ(a.datapath, b.datapath);
    EXPECT_GE(a.p_sa, cfg.profile.p_sa_min);
    EXPECT_LE(a.p_sa, cfg.profile.p_sa_max);
    EXPECT_GE(a.aging_per_interval, cfg.profile.aging_min);
    EXPECT_LE(a.aging_per_interval, cfg.profile.aging_max);
    EXPECT_GE(a.batches_per_tick, cfg.profile.traffic_min);
    EXPECT_LE(a.batches_per_tick, cfg.profile.traffic_max);
  }
}

TEST(FleetProfile, QuantizedFractionPinsTheDatapath) {
  FleetConfig cfg = small_fleet(RepairPolicyKind::kNeverRepair);
  cfg.profile.quantized_fraction = 0.0;
  for (int d = 0; d < 8; ++d) EXPECT_EQ(draw_profile(cfg, d).datapath, Datapath::kFloat);
  cfg.profile.quantized_fraction = 1.0;
  for (int d = 0; d < 8; ++d) EXPECT_EQ(draw_profile(cfg, d).datapath, Datapath::kQuantized);
}

TEST(FleetProfile, PinnedRangesMakeHomogeneousFleets) {
  FleetConfig cfg = small_fleet(RepairPolicyKind::kNeverRepair);
  cfg.profile.p_sa_min = cfg.profile.p_sa_max = 0.03;
  cfg.profile.aging_min = cfg.profile.aging_max = 0.0;  // aging off, pinned
  cfg.profile.traffic_min = cfg.profile.traffic_max = 10;
  for (int d = 0; d < 6; ++d) {
    const DeviceProfile p = draw_profile(cfg, d);
    EXPECT_EQ(p.p_sa, 0.03);
    EXPECT_EQ(p.aging_per_interval, 0.0);
    EXPECT_EQ(p.batches_per_tick, 10);
  }
}

TEST(FleetConfigValidate, RejectsOutOfRangeKnobs) {
  FleetConfig cfg = small_fleet(RepairPolicyKind::kNeverRepair);
  cfg.num_devices = 0;
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg = small_fleet(RepairPolicyKind::kNeverRepair);
  cfg.accuracy_floor = 1.5;
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg = small_fleet(RepairPolicyKind::kNeverRepair);
  cfg.profile.traffic_min = 0;
  EXPECT_THROW(cfg.validate(), ContractViolation);
  cfg = small_fleet(RepairPolicyKind::kNeverRepair);
  cfg.profile.p_sa_min = 0.0;  // log-uniform needs a positive lower edge
  EXPECT_THROW(cfg.validate(), ContractViolation);
}

// --- Survival math -----------------------------------------------------------

TEST(FleetSurvival, KaplanMeierProductOverHandBuiltTimeline) {
  std::vector<TickAggregate> timeline(3);
  timeline[0].tick = 0;
  timeline[0].alive = 10;
  timeline[0].deaths = 2;  // S = 0.8
  timeline[1].tick = 1;
  timeline[1].alive = 8;
  timeline[1].deaths = 0;  // S = 0.8
  timeline[2].tick = 2;
  timeline[2].alive = 8;
  timeline[2].deaths = 4;  // S = 0.4
  const std::vector<double> curve = survival_curve(timeline);
  ASSERT_EQ(curve.size(), std::size_t{3});
  EXPECT_DOUBLE_EQ(curve[0], 0.8);
  EXPECT_DOUBLE_EQ(curve[1], 0.8);
  EXPECT_DOUBLE_EQ(curve[2], 0.4);

  timeline[1].repairs = 3;
  timeline[2].scrubs = 5;
  // Deaths at ticks 0,0,2,2,2,2; four survivors censored at the horizon (3).
  const std::vector<std::int64_t> deaths = {0, 0, 2, 2, 2, 2, -1, -1, -1, -1};
  const FleetSummary s = summarize_fleet(timeline, deaths, 25.0, 1.0);
  EXPECT_EQ(s.devices, 10);
  EXPECT_EQ(s.survivors, 4);
  EXPECT_DOUBLE_EQ(s.survival_fraction, 0.4);
  EXPECT_DOUBLE_EQ(s.mean_lifetime_ticks, (0 + 0 + 2 + 2 + 2 + 2 + 3 + 3 + 3 + 3) / 10.0);
  EXPECT_EQ(s.repairs, 3);
  EXPECT_EQ(s.scrubs, 5);
  EXPECT_DOUBLE_EQ(s.total_cost, 3 * 25.0 + 5 * 1.0);
}

TEST(FleetSurvival, TickAggregateCodecRoundTripsAndScreensCounts) {
  TickAggregate agg;
  agg.tick = 7;
  agg.alive = 42;
  agg.deaths = 3;
  agg.acc_mean = 0.75;
  agg.acc_p10 = 0.5;
  agg.acc_p50 = 0.8;
  agg.acc_p90 = 0.95;
  agg.repairs = 2;
  agg.scrubs = 9;
  agg.detections = 4;
  agg.aged_cells = 11;
  agg.transient_cells = 1;
  ByteWriter out;
  agg.encode(out);
  ByteReader in(out.bytes(), "FLTL");
  const TickAggregate back = TickAggregate::decode(in);
  in.expect_done();
  ByteWriter out2;
  back.encode(out2);
  EXPECT_EQ(out.bytes(), out2.bytes());

  agg.deaths = agg.alive + 1;  // more deaths than devices at risk
  ByteWriter bad;
  agg.encode(bad);
  ByteReader bad_in(bad.bytes(), "FLTL");
  EXPECT_THROW((void)TickAggregate::decode(bad_in), CheckpointError);
}

TEST(FleetSurvival, SparklineSamplesTheCurve) {
  EXPECT_EQ(survival_sparkline({}, 10), "");
  const std::string full = survival_sparkline({1.0, 1.0, 1.0}, 3);
  const std::string gone = survival_sparkline({0.0}, 4);
  EXPECT_EQ(full, "███");
  EXPECT_EQ(gone, "▁");
  EXPECT_THROW((void)survival_sparkline({1.0}, 0), ContractViolation);
}

// --- Whole-fleet simulation --------------------------------------------------

TEST(FleetSim, LifecyclesHappenAndPoliciesActDifferently) {
  const auto model = fleet_model();
  FleetSimulator never(*model, small_fleet(RepairPolicyKind::kNeverRepair));
  const FleetSummary never_summary = never.run();
  EXPECT_EQ(never_summary.repairs, 0);
  EXPECT_EQ(never_summary.scrubs, 0);
  EXPECT_LT(never_summary.survival_fraction, 1.0) << "fleet this defective must lose devices";
  EXPECT_GT(never_summary.survivors, 0) << "benign-profile devices must survive";
  EXPECT_GT(never_summary.detections, 0) << "quantized devices must flag faults";

  FleetSimulator scheduled(*model, small_fleet(RepairPolicyKind::kScheduledRefresh));
  EXPECT_GT(scheduled.run().scrubs, 0) << "cadence policy must refresh";

  FleetSimulator gated(*model, small_fleet(RepairPolicyKind::kCanaryGated));
  EXPECT_GT(gated.run().repairs, 0) << "score this low must trigger swaps";

  // Dead devices stay dead: at-risk counts never increase over the timeline.
  for (std::size_t t = 1; t < never.timeline().size(); ++t) {
    EXPECT_LE(never.timeline()[t].alive, never.timeline()[t - 1].alive);
    EXPECT_EQ(never.timeline()[t].alive,
              never.timeline()[t - 1].alive - never.timeline()[t - 1].deaths);
  }
}

TEST(FleetSim, TimelineIsBitIdenticalAcrossThreadCounts) {
  const auto model = fleet_model();
  const FleetConfig cfg = small_fleet(RepairPolicyKind::kDetectionDrivenScrub);

  set_num_threads(1);
  FleetSimulator serial(*model, cfg);
  serial.run();
  const std::vector<std::uint8_t> serial_timeline = timeline_bytes(serial);

  set_num_threads(4);
  FleetSimulator threaded(*model, cfg);
  threaded.run();
  const std::vector<std::uint8_t> threaded_timeline = timeline_bytes(threaded);
  set_num_threads(0);

  EXPECT_EQ(serial_timeline, threaded_timeline);
  EXPECT_EQ(serial.death_ticks(), threaded.death_ticks());
}

TEST(FleetSim, RefreshHealsTransientsButPersistentFaultsReturn) {
  // One pinned quantized device with heavy transients and no aging: scrubs
  // must bring the engine back to exactly the manufacturing defect count.
  FleetConfig cfg = small_fleet(RepairPolicyKind::kScheduledRefresh);
  cfg.num_devices = 1;
  cfg.ticks = 6;
  cfg.accuracy_floor = 0.0;  // nothing dies; we watch the die state
  cfg.p_transient_per_tick = 0.02;
  cfg.profile.quantized_fraction = 1.0;
  cfg.profile.p_sa_min = cfg.profile.p_sa_max = 0.05;
  cfg.profile.aging_min = cfg.profile.aging_max = 0.0;
  cfg.policy_config.refresh_every_ticks = 1;  // scrub every tick

  const auto model = fleet_model();
  for (Param* p : parameters_of(*model)) p->ensure_grad();  // as if just trained
  FleetSimulator sim(*model, cfg);
  sim.run();

  const VirtualDevice& dev = sim.device(0);
  // A device only serves: its pool's source and replica hold values only.
  EXPECT_TRUE(testing::holds_no_grad(dev.pool().source()));
  EXPECT_TRUE(testing::holds_no_grad(dev.pool().replica(0)));
  EXPECT_GT(dev.transient_cells(), 0) << "upsets this frequent must land";
  EXPECT_GT(dev.scrubs(), 0);
  EXPECT_EQ(dev.aged_cells(), 0);
  EXPECT_EQ(dev.pool().generation(0), 0) << "refresh must not consume a device swap";
  // The last tick ends with a scrub (refresh_every_ticks=1), so the engines
  // hold exactly the persistent (manufacturing) faults again.
  EXPECT_EQ(dev.pool().deployment(0)->stuck_cells(), dev.pool().defect_map(0).fault_count());
}

TEST(FleetSim, FloatDevicesTakeNoTransientsAndNeverFlag) {
  FleetConfig cfg = small_fleet(RepairPolicyKind::kNeverRepair);
  cfg.profile.quantized_fraction = 0.0;  // all-float fleet
  cfg.p_transient_per_tick = 0.02;
  const auto model = fleet_model();
  FleetSimulator sim(*model, cfg);
  const FleetSummary summary = sim.run();
  EXPECT_EQ(summary.detections, 0);
  for (const TickAggregate& agg : sim.timeline()) EXPECT_EQ(agg.transient_cells, 0);
}


// --- Golden digests ----------------------------------------------------------
//
// Each digest hashes a whole sweep's observable outcome — the encoded
// timeline, every device's death tick and every device's final encoded
// defect map — for a fixed config. They were recorded before float devices
// started sharing one pristine source and re-deploying in place, so any
// change to what a device computes, repairs or ages shows up here.

/// FNV-1a over raw bytes, chained through `h`.
std::uint64_t fnv(std::uint64_t h, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t sweep_digest(const FleetConfig& cfg) {
  const auto model = fleet_model();
  FleetSimulator sim(*model, cfg);
  sim.run();
  std::uint64_t h = fnv(0xcbf29ce484222325ull, timeline_bytes(sim));
  ByteWriter tail;
  for (const std::int64_t dead_at : sim.death_ticks()) tail.i64(dead_at);
  for (int d = 0; d < sim.device_count(); ++d) sim.device(d).pool().defect_map(0).encode(tail);
  return fnv(h, tail.bytes());
}

/// All-float canary-gated fleet with aging: every device repairs, refreshes
/// nothing and ages through the float re-deploy path.
FleetConfig golden_float_fleet() {
  FleetConfig cfg = small_fleet(RepairPolicyKind::kCanaryGated);
  cfg.num_devices = 16;
  cfg.ticks = 12;
  cfg.profile.quantized_fraction = 0.0;
  return cfg;
}

#define EXPECT_DIGEST(actual, expected) \
  EXPECT_EQ(actual, expected##ull) << std::hex << "actual digest 0x" << (actual)

TEST(FleetGolden, FloatCanaryGatedFleetWithAging) {
  const FleetConfig cfg = golden_float_fleet();
  EXPECT_DIGEST(sweep_digest(cfg), 0x916b3ed500acc2fc);
}

TEST(FleetGolden, MixedDetectionDrivenScrubFleet) {
  const FleetConfig cfg = small_fleet(RepairPolicyKind::kDetectionDrivenScrub);
  EXPECT_DIGEST(sweep_digest(cfg), 0x31caa4e70a86b098);
}

TEST(FleetGolden, GoldenFleetsExerciseTheLifecycle) {
  // The digests above only pin re-deploys the sweeps actually make.
  const auto model = fleet_model();
  FleetSimulator floats(*model, golden_float_fleet());
  const FleetSummary f = floats.run();
  EXPECT_GT(f.repairs, 0);
  std::int64_t aged = 0;
  for (const TickAggregate& agg : floats.timeline()) aged += agg.aged_cells;
  EXPECT_GT(aged, 0);
  FleetSimulator mixed(*model, small_fleet(RepairPolicyKind::kDetectionDrivenScrub));
  const FleetSummary m = mixed.run();
  EXPECT_GT(m.scrubs, 0);
  EXPECT_GT(m.repairs, 0);
}

}  // namespace
}  // namespace ftpim::fleet
