// Kill-and-resume regression for the fleet simulator: a sweep interrupted at
// any checkpoint boundary and resumed — at the SAME or a DIFFERENT
// FTPIM_THREADS setting — must reproduce the uninterrupted run's timeline
// bit-exactly. Also exercises the refusal paths: config/seed mismatch and
// resume-after-step. Suite name FleetResume* rides scripts/ci.sh's crash
// subset alongside FtResume.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/checkpoint.hpp"
#include "src/common/crc32c.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/fleet/fleet_simulator.hpp"
#include "src/models/mlp.hpp"
#include "test_util.hpp"

namespace ftpim::fleet {
namespace {

FleetConfig resume_fleet() {
  FleetConfig cfg;
  cfg.num_devices = 10;
  cfg.ticks = 6;
  cfg.sample_shape = {16};
  cfg.probe_samples = 12;
  cfg.accuracy_floor = 0.55;
  cfg.interval_batches = 16;
  cfg.p_transient_per_tick = 0.004;  // transient replay must round-trip too
  cfg.seed = 77;
  cfg.profile.p_sa_min = 0.01;
  cfg.profile.p_sa_max = 0.06;
  cfg.profile.aging_min = 0.001;
  cfg.profile.aging_max = 0.008;
  cfg.profile.traffic_min = 8;
  cfg.profile.traffic_max = 24;
  cfg.profile.quantized_fraction = 0.8;  // mixed fleet: float devices resume too
  cfg.policy = RepairPolicyKind::kDetectionDrivenScrub;  // scrubs AND repairs
  cfg.policy_config.refresh_every_ticks = 2;
  cfg.policy_config.max_scrub_retries = 1;
  cfg.quantized.adc.bits = 0;
  cfg.checkpoint_every_ticks = 2;
  return cfg;
}

std::unique_ptr<Module> fleet_model() { return make_mlp({16, 24, 4}, 7); }

std::vector<std::uint8_t> timeline_bytes(const FleetSimulator& sim) {
  ByteWriter out;
  for (const TickAggregate& agg : sim.timeline()) agg.encode(out);
  return out.take();
}

/// Uninterrupted-sweep artifacts the resumed runs must reproduce.
struct Baseline {
  std::vector<std::uint8_t> timeline;
  std::vector<std::int64_t> deaths;
  FleetSummary summary;
};

Baseline run_uninterrupted(const Module& model, const FleetConfig& cfg) {
  FleetSimulator sim(model, cfg);
  Baseline base;
  base.summary = sim.run();
  base.timeline = timeline_bytes(sim);
  base.deaths = sim.death_ticks();
  return base;
}

/// Steps a checkpointing sweep to tick `kill_at`, abandons it (destructor ==
/// crash: the checkpoint file is all that survives), then resumes a fresh
/// simulator from that file and runs it to the horizon.
void kill_and_resume(const Module& model, const FleetConfig& cfg, std::int64_t kill_at,
                     const Baseline& base) {
  {
    FleetSimulator doomed(model, cfg);
    for (std::int64_t t = 0; t < kill_at; ++t) doomed.step();
    ASSERT_TRUE(std::filesystem::exists(cfg.checkpoint_path))
        << "no checkpoint on disk at kill tick " << kill_at;
  }

  FleetSimulator resumed(model, cfg);
  resumed.resume(cfg.checkpoint_path);
  EXPECT_EQ(resumed.next_tick(), kill_at) << "cursor must land on the kill tick";
  const FleetSummary summary = resumed.run();

  EXPECT_EQ(timeline_bytes(resumed), base.timeline) << "killed at tick " << kill_at;
  EXPECT_EQ(resumed.death_ticks(), base.deaths);
  EXPECT_EQ(summary.survivors, base.summary.survivors);
  EXPECT_EQ(summary.repairs, base.summary.repairs);
  EXPECT_EQ(summary.scrubs, base.summary.scrubs);
  EXPECT_EQ(summary.detections, base.summary.detections);
  EXPECT_DOUBLE_EQ(summary.final_acc_p50, base.summary.final_acc_p50);
}

TEST(FleetResume, KillAtEveryBoundaryReproducesTheSweepBitExactly) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  const testing::ScratchDir scratch;
  cfg.checkpoint_path = scratch.file("sweep.ftck").string();

  FleetConfig clean = cfg;
  clean.checkpoint_path.clear();  // baseline never touches the disk
  const Baseline base = run_uninterrupted(*model, clean);
  EXPECT_LT(base.summary.survival_fraction, 1.0) << "sweep must exercise deaths";
  EXPECT_GT(base.summary.scrubs + base.summary.repairs, 0) << "and maintenance";

  // Every cadence boundary, including the horizon itself (resume-then-run
  // with nothing left to simulate must still hand back the same summary).
  for (std::int64_t kill_at : {std::int64_t{2}, std::int64_t{4}, std::int64_t{6}}) {
    kill_and_resume(*model, cfg, kill_at, base);
  }
}

TEST(FleetResume, ResumeIsBitExactAcrossThreadCounts) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  const testing::ScratchDir scratch;
  cfg.checkpoint_path = scratch.file("sweep.ftck").string();

  FleetConfig clean = cfg;
  clean.checkpoint_path.clear();
  set_num_threads(1);
  const Baseline base = run_uninterrupted(*model, clean);

  // Checkpoint written single-threaded, resumed at 4 threads — and the other
  // way around. Both must reproduce the single-threaded baseline bit-exactly.
  set_num_threads(1);
  {
    FleetSimulator doomed(*model, cfg);
    doomed.step();
    doomed.step();
  }
  set_num_threads(4);
  {
    FleetSimulator resumed(*model, cfg);
    resumed.resume(cfg.checkpoint_path);
    resumed.run();
    EXPECT_EQ(timeline_bytes(resumed), base.timeline) << "1-thread ckpt, 4-thread resume";
    EXPECT_EQ(resumed.death_ticks(), base.deaths);
  }

  // 4-thread sweep overwrites the checkpoint at tick 4; resume serial.
  {
    FleetSimulator doomed(*model, cfg);
    for (int t = 0; t < 4; ++t) doomed.step();
  }
  set_num_threads(1);
  {
    FleetSimulator resumed(*model, cfg);
    resumed.resume(cfg.checkpoint_path);
    EXPECT_EQ(resumed.next_tick(), 4);
    resumed.run();
    EXPECT_EQ(timeline_bytes(resumed), base.timeline) << "4-thread ckpt, 1-thread resume";
  }
  set_num_threads(0);
}

TEST(FleetResume, MismatchedConfigOrSeedIsRefused) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  const testing::ScratchDir scratch;
  cfg.checkpoint_path = scratch.file("sweep.ftck").string();
  {
    FleetSimulator doomed(*model, cfg);
    doomed.step();
    doomed.step();
  }

  FleetConfig other_seed = cfg;
  other_seed.seed += 1;
  FleetSimulator wrong_seed(*model, other_seed);
  try {
    wrong_seed.resume(cfg.checkpoint_path);
    FAIL() << "seed mismatch must not resume";
  } catch (const CheckpointError& err) {
    EXPECT_EQ(err.kind(), CheckpointErrorKind::kStateMismatch);
    EXPECT_EQ(err.chunk(), "FLCF");
  }

  FleetConfig other_policy = cfg;
  other_policy.policy = RepairPolicyKind::kNeverRepair;
  FleetSimulator wrong_policy(*model, other_policy);
  EXPECT_THROW(wrong_policy.resume(cfg.checkpoint_path), CheckpointError);

  // checkpoint_path itself is NOT part of the canonical echo: resuming the
  // same sweep into a different output path is the normal sharded workflow.
  FleetConfig other_path = cfg;
  other_path.checkpoint_path = (scratch.sub("out") / "other.ftck").string();
  FleetSimulator repathed(*model, other_path);
  EXPECT_NO_THROW(repathed.resume(cfg.checkpoint_path));
}

TEST(FleetResume, ResumeAfterSteppingIsAContractViolation) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  const testing::ScratchDir scratch;
  cfg.checkpoint_path = scratch.file("sweep.ftck").string();
  {
    FleetSimulator doomed(*model, cfg);
    doomed.step();
    doomed.step();
  }
  FleetSimulator late(*model, cfg);
  late.step();
  EXPECT_THROW(late.resume(cfg.checkpoint_path), ContractViolation);
}

TEST(FleetResume, TruncatedCheckpointIsRefused) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  const testing::ScratchDir scratch;
  cfg.checkpoint_path = scratch.file("sweep.ftck").string();
  {
    FleetSimulator doomed(*model, cfg);
    doomed.step();
    doomed.step();
  }
  // Chop the tail off the file; the CRC32C framing must catch it.
  std::vector<char> bytes;
  {
    std::ifstream in(cfg.checkpoint_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), std::size_t{64});
  const std::string cut = scratch.file("cut.ftck").string();
  {
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 48));
  }
  FleetSimulator victim(*model, cfg);
  EXPECT_THROW(victim.resume(cut), CheckpointError);
}


// --- Structured mutation -----------------------------------------------------
//
// Past truncation and bit flips: checkpoints re-framed with VALID checksums
// but a different structure (chunks reordered, FLDV duplicated, device
// records swapped or duplicated inside FLDV, FEND placed early), and chunks
// whose declared length lies. Each must either resume and reproduce the
// uninterrupted sweep bit-exactly, or throw a typed CheckpointError — never
// crash, hang, or resume a different timeline. A successful resume replays
// every device's repairs and aging through the pool's re-deploy path.

struct Frame {
  std::string tag;
  std::vector<std::uint8_t> payload;
};

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The chunks of a well-formed FTCK image, in file order, sentinel excluded.
std::vector<Frame> parse_frames(const std::vector<std::uint8_t>& image) {
  std::vector<Frame> frames;
  ByteReader in(image, "image");
  (void)in.take_bytes(8);  // magic + version
  for (;;) {
    Frame f;
    const std::uint8_t* tag = in.take_bytes(4);
    f.tag.assign(tag, tag + 4);
    const std::uint64_t len = in.u64();
    const std::uint8_t* payload = in.take_bytes(static_cast<std::size_t>(len));
    (void)in.u32();  // crc
    if (f.tag == "FEND") break;
    f.payload.assign(payload, payload + len);
    frames.push_back(std::move(f));
  }
  in.expect_done();
  return frames;
}

void emit_frame(ByteWriter& out, const std::string& tag, const std::vector<std::uint8_t>& payload) {
  out.raw(tag.data(), 4);
  out.u64(payload.size());
  out.raw(payload.data(), payload.size());
  std::uint32_t crc = crc32c_update(crc32c_init(), tag.data(), 4);
  crc = crc32c_update(crc, payload.data(), payload.size());
  out.u32(crc32c_finish(crc));
}

/// Re-frames `frames` with valid checksums behind `image`'s header. The
/// sentinel goes before frame `fend_at` (frames.size() = at the end).
std::vector<std::uint8_t> frame_image(const std::vector<std::uint8_t>& image,
                                      const std::vector<Frame>& frames, std::size_t fend_at) {
  ByteWriter out;
  out.raw(image.data(), 8);
  for (std::size_t i = 0; i <= frames.size(); ++i) {
    if (i == fend_at) emit_frame(out, "FEND", {});
    if (i < frames.size()) emit_frame(out, frames[i].tag, frames[i].payload);
  }
  return out.take();
}

/// FLDV payload split into its u32 device count and length-prefixed records.
std::vector<std::vector<std::uint8_t>> device_records(const std::vector<std::uint8_t>& fldv) {
  ByteReader in(fldv, "FLDV");
  std::vector<std::vector<std::uint8_t>> records(in.u32());
  for (auto& record : records) {
    const std::size_t len = static_cast<std::size_t>(in.u64());
    const std::uint8_t* p = in.take_bytes(len);
    record.assign(p, p + len);
  }
  in.expect_done();
  return records;
}

std::vector<std::uint8_t> join_records(const std::vector<std::vector<std::uint8_t>>& records) {
  ByteWriter out;
  out.u32(static_cast<std::uint32_t>(records.size()));
  for (const auto& record : records) {
    out.u64(record.size());
    out.raw(record.data(), record.size());
  }
  return out.take();
}

Frame& frame_named(std::vector<Frame>& frames, const std::string& tag) {
  for (Frame& f : frames) {
    if (f.tag == tag) return f;
  }
  throw std::logic_error("no chunk " + tag);
}

enum class Outcome { kResumedBitExact, kRefused };

/// Resumes a fresh simulator from `image` and runs it to the horizon. A
/// refusal must be a CheckpointError (anything else propagates and fails
/// the test); a resume must reproduce `base` bit-exactly.
Outcome resume_or_refuse(const Module& model, const FleetConfig& cfg,
                         const std::vector<std::uint8_t>& image, const Baseline& base,
                         const testing::ScratchDir& scratch, const std::string& what) {
  SCOPED_TRACE(what);
  const std::string path = scratch.file("mutant.ftck").string();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(image.data()),
              static_cast<std::streamsize>(image.size()));
  }
  FleetSimulator sim(model, cfg);
  try {
    sim.resume(path);
  } catch (const CheckpointError&) {
    return Outcome::kRefused;
  }
  sim.run();
  EXPECT_EQ(timeline_bytes(sim), base.timeline);
  EXPECT_EQ(sim.death_ticks(), base.deaths);
  return Outcome::kResumedBitExact;
}

TEST(FleetResume, StructuredMutationResumesBitExactlyOrIsRefused) {
  const auto model = fleet_model();
  FleetConfig cfg = resume_fleet();
  const testing::ScratchDir scratch;
  cfg.checkpoint_path = scratch.file("sweep.ftck").string();
  FleetConfig clean = cfg;
  clean.checkpoint_path.clear();  // resumed mutants never write checkpoints
  const Baseline base = run_uninterrupted(*model, clean);
  {
    FleetSimulator doomed(*model, cfg);
    for (int t = 0; t < 4; ++t) doomed.step();
  }
  const std::vector<std::uint8_t> image = read_bytes(cfg.checkpoint_path);
  const std::vector<Frame> frames = parse_frames(image);
  ASSERT_EQ(frames.size(), std::size_t{4});
  ASSERT_EQ(frame_image(image, frames, frames.size()), image) << "re-framing must round-trip";
  {
    // The mutants only mean something if the replayed devices re-deploy.
    FleetSimulator probe(*model, clean);
    probe.resume(cfg.checkpoint_path);
    std::int64_t repairs = 0;
    for (int d = 0; d < probe.device_count(); ++d) repairs += probe.device(d).repairs();
    ASSERT_GT(repairs, 0);
  }

  const auto expect = [&](Outcome want, const std::vector<std::uint8_t>& mutant,
                          const std::string& what) {
    EXPECT_EQ(resume_or_refuse(*model, clean, mutant, base, scratch, what), want) << what;
  };
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng.uniform_int(n)); };
    const std::string tag = "seed " + std::to_string(seed) + ": ";

    // Reordered chunks: the reader looks chunks up by tag, so any order of
    // valid chunks is the same checkpoint.
    std::vector<Frame> shuffled = frames;
    for (std::size_t i = shuffled.size(); i > 1; --i) std::swap(shuffled[i - 1], shuffled[pick(i)]);
    expect(Outcome::kResumedBitExact, frame_image(image, shuffled, shuffled.size()),
           tag + "reordered chunks");

    // A second FLDV chunk anywhere.
    std::vector<Frame> doubled = frames;
    doubled.insert(doubled.begin() + static_cast<std::ptrdiff_t>(pick(doubled.size() + 1)),
                   frame_named(shuffled, "FLDV"));
    expect(Outcome::kRefused, frame_image(image, doubled, doubled.size()), tag + "duplicated FLDV");

    // FEND before the last chunk, with the rest left behind it or dropped.
    const std::size_t early = pick(frames.size());
    expect(Outcome::kRefused, frame_image(image, frames, early), tag + "early FEND, trailing chunks");
    const std::vector<Frame> head(frames.begin(), frames.begin() + static_cast<std::ptrdiff_t>(early));
    expect(Outcome::kRefused, frame_image(image, head, head.size()), tag + "early FEND, tail dropped");

    // A false length on one chunk (checksum left as written).
    std::vector<std::uint8_t> lying = image;
    std::size_t at = 8;
    const std::size_t victim = pick(frames.size());
    for (std::size_t i = 0; i < victim; ++i) at += 16 + frames[i].payload.size();
    const std::uint64_t declared = frames[victim].payload.size();
    const std::uint64_t lie = rng.uniform_int(2) == 0 ? declared + 1 + pick(64)
                                                      : declared - std::min<std::uint64_t>(declared, 1 + pick(8));
    for (int b = 0; b < 8; ++b) lying[at + 4 + static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(lie >> (8 * b));
    expect(Outcome::kRefused, lying, tag + "false length on " + frames[victim].tag);

    // Inside FLDV (checksums valid): two device records swapped, one record
    // duplicated over another, and a record whose length prefix lies.
    const std::vector<std::vector<std::uint8_t>> records = device_records(frame_named(shuffled, "FLDV").payload);
    const std::size_t a = pick(records.size());
    const std::size_t b = (a + 1 + pick(records.size() - 1)) % records.size();
    for (const bool swap_records : {true, false}) {
      std::vector<std::vector<std::uint8_t>> mutated = records;
      if (swap_records) {
        std::swap(mutated[a], mutated[b]);
      } else {
        mutated[b] = mutated[a];
      }
      std::vector<Frame> reframed = frames;
      frame_named(reframed, "FLDV").payload = join_records(mutated);
      expect(Outcome::kRefused, frame_image(image, reframed, reframed.size()),
             tag + (swap_records ? "swapped device records" : "duplicated device record"));
    }
    std::vector<Frame> bad_prefix = frames;
    std::vector<std::uint8_t>& fldv = frame_named(bad_prefix, "FLDV").payload;
    const std::uint64_t first_len = records[0].size() + 1 + pick(16);
    for (int i = 0; i < 8; ++i) fldv[4 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(first_len >> (8 * i));
    expect(Outcome::kRefused, frame_image(image, bad_prefix, bad_prefix.size()),
           tag + "false device record length");
  }
}

}  // namespace
}  // namespace ftpim::fleet
