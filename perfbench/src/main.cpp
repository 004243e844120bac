// ftpim_perfbench — one run of the end-to-end benchmark (driven by run.py).
//
//   ftpim_perfbench --workload <float|quant-heal> --seed <n> --seconds <s> --trace <0|1>
//
// Builds every phase's state five times (setup_s is the median), then runs
// the serve, FT-training/defect-evaluation and fleet phases, and prints one
// line "PERFBENCH_RESULT {json}" with metrics, correctness checks, operation
// counts and provenance. Exit status 0 means the run completed; run.py turns
// failed checks into a non-zero exit.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>

#include "perfbench/src/common.hpp"
#include "perfbench/src/stats.hpp"
#include "src/common/parallel.hpp"
#include "src/tensor/kernels/dispatch.hpp"

namespace perfbench {

namespace {

// Fixed open-loop rates: ~25% and ~75% of each workload's knee on the 4-vCPU
// Xeon virtual machine the benchmark was calibrated on (see README.md).
const Workload kWorkloads[] = {
    {"float", false, 6000.0, 18000.0},
    {"quant-heal", true, 1400.0, 4200.0},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Peak resident set size of this process, from /proc/self/status (VmHWM).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      o.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value, &used);
      have[1] = used == value.size();
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value, &used);
      have[2] = used == value.size() && o.seconds > 0.0 && o.seconds <= 600.0;
    } else if (flag == "--trace") {
      have[3] = value == "0" || value == "1";
      o.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  for (const bool h : have) {
    if (!h) throw std::invalid_argument("need --workload, --seed, --seconds > 0 and --trace 0|1");
  }
  return o;
}

}  // namespace

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) out += (out.empty() ? "" : " ") + json_number(v);
  return out;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    check("finite." + name, false, "metric is not a finite number");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::check(const std::string& name, bool ok, const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::fact(const std::string& name, const std::string& value) {
  facts_.push_back({name, "\"" + json_escape(value) + "\""});
}

void Report::fact(const std::string& name, double value) {
  facts_.push_back({name, std::isfinite(value) ? json_number(value) : "null"});
}

void Report::raw_fact(const std::string& name, const std::string& json) {
  facts_.push_back({name, json});
}

void Report::ops(std::int64_t attempted, std::int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

std::string Report::to_json() const {
  std::string out = "{\"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + metrics_[i].name + "\": {\"value\": " +
           json_number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}, \"checks\": [";
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    out += (i ? ", " : "") + std::string("{\"name\": \"") + checks_[i].name +
           "\", \"ok\": " + (checks_[i].ok ? "true" : "false") + ", \"detail\": \"" +
           json_escape(checks_[i].detail) + "\"}";
  }
  out += "], \"facts\": {";
  for (std::size_t i = 0; i < facts_.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + facts_[i].name + "\": " + facts_[i].json;
  }
  out += "}, \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + "}";
  return out;
}

int run(const Options& o) {
  const Workload* w = find_workload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (float, quant-heal)\n", o.workload.c_str());
    return 2;
  }
  Report report;
  report.fact("workload", w->name);
  report.fact("seed", static_cast<double>(o.seed));
  report.fact("seconds", o.seconds);
  report.fact("trace", o.trace ? 1.0 : 0.0);
  report.fact("kernel_level",
              ftpim::kernels::kernel_level_name(ftpim::kernels::active_kernel_level()));
  report.fact("compiler", PERFBENCH_COMPILER);
  report.fact("flags", PERFBENCH_FLAGS);
  // Thread budget: intra-op parallelism off for the whole run. The serve
  // phase then uses 1 generator + 2 replica workers, 3 of the 4
  // cores the benchmark is budgeted; the offline jobs are single-threaded, so their CPU time is their
  // cost on one core.
  ftpim::set_num_threads(1);
  report.fact("threads", "FTPIM_THREADS=1 (intra-op); serve adds 1 generator + 2 replica workers");

  std::unique_ptr<Phase> phases[] = {make_serve_phase(*w, o), make_train_phase(*w, o),
                                     make_fleet_phase(*w, o)};
  // Set-up is timed on the CPU clock like the offline jobs; it spawns the
  // two serve workers, which are idle until traffic starts.
  std::vector<double> setups;
  for (int k = 0; k < 5; ++k) {
    const std::int64_t t = cpu_now_ns();
    for (auto& p : phases) p->setup();
    setups.push_back(static_cast<double>(cpu_now_ns() - t) * 1e-9);
  }
  if (!o.trace) report.metric("setup_s", median(setups), "s");
  report.fact("setup_s.samples", join(setups));
  for (auto& p : phases) p->run(report);
  if (o.trace) run_layer_probes(*w, o, report);
  if (!o.trace) report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("PERFBENCH_RESULT %s\n", report.to_json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options o;
  try {
    o = perfbench::parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftpim_perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return perfbench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftpim_perfbench: run failed: %s\n", e.what());
    return 1;
  }
}
