// Shared pieces of the benchmark binary: options, the workload table, the
// result record every phase writes into, and timing helpers.
//
// A run executes the deployment story once, in four phases, on one of two
// datapaths (the workload): serve (open-loop traffic into an
// InferenceServer), FT training, Monte-Carlo defect evaluation, and the fleet
// lifecycle simulator. See README.md for why and for the metric map.
#pragma once

#include <chrono>
#include <ctime>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>


namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
};

/// Which datapath every phase of a run deploys on.
struct Workload {
  std::string name;
  bool quantized = false;  ///< int8 crossbar engines + ABFT, aging, canaries, scrubs
  double light_rps = 0.0;  ///< fixed open-loop rates, ~25% and ~75% of the
  double heavy_rps = 0.0;  ///< knee measured when the benchmark landed
};

[[nodiscard]] const Workload* find_workload(const std::string& name);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process CPU time. The offline jobs are timed on it as well as on the wall
/// clock: it leaves out the time the hypervisor preempts the vCPU for, and on
/// a single-threaded job on an idle core the two agree.
inline std::int64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// Times each offline job (FT training + defect evaluation, fleet) runs in a
/// run; its metrics are the median round.
inline constexpr int kRounds = 3;

/// Space-separated %.6g rendering of per-round samples, for the record.
std::string join(const std::vector<double>& values);

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Everything a run reports. Phases append metrics (end-to-end in the
/// untraced run, per-layer in the traced one), correctness checks, operation
/// counts and free-form facts; main() serializes it as the result line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void check(const std::string& name, bool ok, const std::string& detail);
  void fact(const std::string& name, const std::string& value);
  void fact(const std::string& name, double value);
  /// A fact whose value is already a JSON document.
  void raw_fact(const std::string& name, const std::string& json);
  /// Operations attempted / failed (refused requests count as failed).
  void ops(std::int64_t attempted, std::int64_t failed);

  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric { std::string name; double value; std::string unit; };
  struct Check { std::string name; bool ok; std::string detail; };
  struct Fact { std::string name; std::string json; };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<Fact> facts_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

/// Phase entry points. Each builds its own state in setup() (timed into
/// setup_s) and measures in run(); `trace` selects the per-layer variant.
class Phase {
 public:
  virtual ~Phase() = default;
  Phase() = default;
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  virtual void setup() = 0;
  virtual void run(Report& report) = 0;
};

std::unique_ptr<Phase> make_serve_phase(const Workload& w, const Options& o);
std::unique_ptr<Phase> make_train_phase(const Workload& w, const Options& o);
std::unique_ptr<Phase> make_fleet_phase(const Workload& w, const Options& o);

/// Offline per-layer probes (traced run only): nn/tensor/qinfer/pool timings
/// on the serve model built from the workload's config.
void run_layer_probes(const Workload& w, const Options& o, Report& report);

}  // namespace perfbench
