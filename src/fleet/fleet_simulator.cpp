#include "src/fleet/fleet_simulator.hpp"

#include <exception>
#include <utility>

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/stats.hpp"
#include "src/common/strformat.hpp"

namespace ftpim::fleet {
namespace {

// Checkpoint chunk tags (see fleet_simulator.hpp).
constexpr const char* kConfigChunk = "FLCF";
constexpr const char* kCursorChunk = "FLCU";
constexpr const char* kTimelineChunk = "FLTL";
constexpr const char* kDevicesChunk = "FLDV";

/// parallel_for workers must not throw (std::thread would terminate), so
/// every per-device parallel body records its first failure here and the
/// caller rethrows serially after the join — lowest device index wins, which
/// keeps even the error surface thread-count-independent.
void rethrow_first(const std::vector<std::exception_ptr>& errors) {
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

}  // namespace

FleetSimulator::FleetSimulator(const Module& source, const FleetConfig& config) : config_(config) {
  config_.validate();
  source_ = source.clone();
  probe_ = make_canary_set(*source_, config_.sample_shape, config_.probe_samples,
                           derive_seed(config_.seed, kProbeStream));
  policy_ = make_repair_policy(config_.policy, config_.policy_config);

  // Device construction — profile draw, clone, defect injection, deployment
  // — is index-keyed and independent, so it fans out like a tick does.
  devices_.resize(static_cast<std::size_t>(config_.num_devices));
  std::vector<std::exception_ptr> errors(devices_.size());
  parallel_for_chunks(
      0, devices_.size(),
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
          try {
            devices_[i] = std::make_unique<VirtualDevice>(source_, config_, static_cast<int>(i));
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      },
      /*min_parallel_trip=*/1);
  rethrow_first(errors);
}

void FleetSimulator::step() {
  const std::int64_t tick = next_tick_;

  // Fan out: every device advances independently into its own slot.
  std::vector<DeviceTick> slots(devices_.size());
  std::vector<std::exception_ptr> errors(devices_.size());
  parallel_for_chunks(
      0, devices_.size(),
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
          try {
            slots[i] = devices_[i]->step(*policy_, tick, probe_);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      },
      /*min_parallel_trip=*/1);
  rethrow_first(errors);

  // Reduce serially in device-index order: fixed-order sums, so the
  // aggregate is bit-identical at any thread count.
  TickAggregate agg;
  agg.tick = tick;
  std::vector<double> at_risk;
  at_risk.reserve(slots.size());
  double acc_sum = 0.0;
  for (const DeviceTick& dev : slots) {
    if (!dev.was_alive) continue;
    ++agg.alive;
    if (dev.died) ++agg.deaths;
    acc_sum += dev.probe_accuracy;
    at_risk.push_back(dev.probe_accuracy);
    agg.repairs += dev.repairs;
    agg.scrubs += dev.scrubs;
    agg.detections += dev.detections;
    agg.aged_cells += dev.aged_cells;
    agg.transient_cells += dev.transient_cells;
  }
  if (agg.alive > 0) {
    agg.acc_mean = acc_sum / static_cast<double>(agg.alive);
    agg.acc_p10 = quantile(at_risk, 0.10);
    agg.acc_p50 = quantile(at_risk, 0.50);
    agg.acc_p90 = quantile(at_risk, 0.90);
  }
  timeline_.push_back(agg);
  ++next_tick_;
  maybe_checkpoint();
}

FleetSummary FleetSimulator::run() {
  while (next_tick_ < config_.ticks) step();
  return summary();
}

std::vector<std::int64_t> FleetSimulator::death_ticks() const {
  std::vector<std::int64_t> deaths;
  deaths.reserve(devices_.size());
  for (const auto& dev : devices_) deaths.push_back(dev->dead_at());
  return deaths;
}

FleetSummary FleetSimulator::summary() const {
  return summarize_fleet(timeline_, death_ticks(), config_.policy_config.repair_cost,
                         config_.policy_config.scrub_cost);
}

void FleetSimulator::maybe_checkpoint() const {
  if (config_.checkpoint_path.empty()) return;
  if (next_tick_ % config_.checkpoint_every_ticks == 0 || next_tick_ == config_.ticks) {
    checkpoint_to(config_.checkpoint_path);
  }
}

void FleetSimulator::checkpoint_to(const std::string& path) const {
  CheckpointWriter writer;
  {
    ByteWriter config_echo;
    config_.encode(config_echo);
    writer.add_chunk(kConfigChunk, config_echo.take());
  }
  {
    ByteWriter cursor;
    cursor.i64(next_tick_);
    writer.add_chunk(kCursorChunk, cursor.take());
  }
  {
    ByteWriter timeline;
    timeline.u32(static_cast<std::uint32_t>(timeline_.size()));
    for (const TickAggregate& agg : timeline_) agg.encode(timeline);
    writer.add_chunk(kTimelineChunk, timeline.take());
  }
  {
    // Each device record is u64-length-prefixed so resume() can locate all
    // records in one serial scan and replay them in parallel.
    ByteWriter devices;
    devices.u32(static_cast<std::uint32_t>(devices_.size()));
    for (const auto& dev : devices_) {
      ByteWriter record;
      dev->encode_state(record);
      devices.u64(record.bytes().size());
      devices.raw(record.bytes().data(), record.bytes().size());
    }
    writer.add_chunk(kDevicesChunk, devices.take());
  }
  writer.write(path);
}

void FleetSimulator::resume(const std::string& path) {
  FTPIM_CHECK(next_tick_ == 0 && timeline_.empty(),
              "FleetSimulator::resume: must be called before any step()");
  CheckpointReader reader(path);

  // The checkpointed config must byte-match the live one: profiles, fault
  // streams, and policy behavior are all functions of it, so resuming under
  // different parameters would silently change the sweep's meaning.
  ByteWriter live_config;
  config_.encode(live_config);
  if (reader.chunk(kConfigChunk) != live_config.bytes()) {
    throw CheckpointError(CheckpointErrorKind::kStateMismatch, kConfigChunk,
                          "checkpoint was written under a different fleet config/seed");
  }

  ByteReader cursor = reader.reader(kCursorChunk);
  const std::int64_t tick = cursor.i64();
  cursor.expect_done();
  if (tick < 0) {
    throw CheckpointError(CheckpointErrorKind::kFormat, kCursorChunk, "negative tick cursor");
  }

  ByteReader timeline_in = reader.reader(kTimelineChunk);
  const std::uint32_t entries = timeline_in.u32();
  if (static_cast<std::int64_t>(entries) != tick) {
    throw CheckpointError(
        CheckpointErrorKind::kFormat, kTimelineChunk,
        detail::format_msg("timeline holds %u entries but the cursor says %lld ticks completed",
                           entries, static_cast<long long>(tick)));
  }
  std::vector<TickAggregate> timeline;
  timeline.reserve(entries);
  for (std::uint32_t i = 0; i < entries; ++i) {
    TickAggregate agg = TickAggregate::decode(timeline_in);
    if (agg.tick != static_cast<std::int64_t>(i)) {
      throw CheckpointError(CheckpointErrorKind::kFormat, kTimelineChunk,
                            "timeline entries out of tick order");
    }
    timeline.push_back(agg);
  }
  timeline_in.expect_done();

  // One serial scan over the device chunk collects each record's extent...
  const std::vector<std::uint8_t>& device_bytes = reader.chunk(kDevicesChunk);
  ByteReader scan(device_bytes, kDevicesChunk);
  const std::uint32_t count = scan.u32();
  if (count != devices_.size()) {
    throw CheckpointError(
        CheckpointErrorKind::kStateMismatch, kDevicesChunk,
        detail::format_msg("checkpoint holds %u devices, this fleet has %zu", count,
                           devices_.size()));
  }
  struct Extent {
    std::size_t offset = 0;
    std::size_t length = 0;
  };
  std::vector<Extent> extents(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint64_t length = scan.u64();
    extents[i].offset = device_bytes.size() - scan.remaining();
    extents[i].length = static_cast<std::size_t>(length);
    (void)scan.take_bytes(extents[i].length);  // bounds-checked skip
  }
  scan.expect_done();

  // ...then device replay (repair generations + aging + transient re-apply,
  // each cross-checked against its map echo) fans out in parallel.
  std::vector<std::exception_ptr> errors(devices_.size());
  parallel_for_chunks(
      0, devices_.size(),
      [&](std::size_t chunk_begin, std::size_t chunk_end) {
        for (std::size_t i = chunk_begin; i < chunk_end; ++i) {
          try {
            ByteReader record(device_bytes.data() + extents[i].offset, extents[i].length,
                              kDevicesChunk);
            devices_[i]->restore_state(record);
            record.expect_done();
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
      },
      /*min_parallel_trip=*/1);
  rethrow_first(errors);

  timeline_ = std::move(timeline);
  next_tick_ = tick;
}

}  // namespace ftpim::fleet
