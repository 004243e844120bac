// Pure arithmetic of the benchmark: exact percentiles, the open-loop arrival
// schedule, the saturation-knee search and the trace's coverage/self-time
// ratios. Header-only and free of ftpim dependencies so tests/stats_test.cpp
// can pin every rule on synthetic inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <random>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile q among n samples: ceil(q/100 * n),
/// with the product nudged down so 99.9% of 10000 is rank 9990, not 9991.
inline std::int64_t rank_at(double q, std::int64_t n) {
  return static_cast<std::int64_t>(std::ceil(q / 100.0 * static_cast<double>(n) - 1e-9));
}

/// Exact nearest-rank percentile (q in [0, 100]) of unsorted samples: the
/// smallest sample with at least q% of the samples at or below it. Empty
/// input yields 0.
inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::int64_t rank = rank_at(q, static_cast<std::int64_t>(values.size()));
  const auto idx = std::clamp<std::int64_t>(rank - 1, 0, static_cast<std::int64_t>(values.size()) - 1);
  return values[static_cast<std::size_t>(idx)];
}

inline double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

/// The percentile ladder a timing may be reported at.
inline constexpr double kPercentileLadder[] = {50.0, 90.0, 99.0, 99.9, 99.99, 99.999};

/// Highest ladder percentile that leaves at least `min_beyond` of `n`
/// samples strictly above its rank; 0 when even the median does not.
inline double supported_percentile(std::int64_t n, std::int64_t min_beyond = 10) {
  double best = 0.0;
  for (const double q : kPercentileLadder) {
    if (n - rank_at(q, n) >= min_beyond) best = q;
  }
  return best;
}

/// One timing distribution as the benchmark reports it: sample count,
/// median, p99, and the highest percentile the sample count supports.
struct Timing {
  std::int64_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double top_q = 0.0;    ///< supported_percentile(n)
  double top = 0.0;      ///< value at top_q
};

inline Timing summarize(const std::vector<double>& values) {
  Timing t;
  t.n = static_cast<std::int64_t>(values.size());
  t.p50 = percentile(values, 50.0);
  t.p99 = percentile(values, 99.0);
  t.top_q = supported_percentile(t.n);
  t.top = t.top_q > 0.0 ? percentile(values, t.top_q) : 0.0;
  return t;
}

/// Median over `windows` equal consecutive slices of `values` (in arrival
/// order) of each slice's percentile q. One stall spoils one slice's tail,
/// not the whole trial's, so the estimate is steadier than the pooled
/// percentile on a machine that preempts threads.
inline double windowed_percentile(const std::vector<double>& values, double q, int windows) {
  if (values.empty() || windows <= 1) return percentile(values, q);
  std::vector<double> per;
  const std::size_t n = values.size();
  for (int w = 0; w < windows; ++w) {
    const std::size_t lo = n * static_cast<std::size_t>(w) / static_cast<std::size_t>(windows);
    const std::size_t hi = n * static_cast<std::size_t>(w + 1) / static_cast<std::size_t>(windows);
    if (hi > lo) per.emplace_back(percentile({values.begin() + static_cast<std::ptrdiff_t>(lo),
                                              values.begin() + static_cast<std::ptrdiff_t>(hi)}, q));
  }
  return median(per);
}

/// Due offsets (ns from the start of the trial) of an open-loop Poisson
/// arrival process at `rate_per_s` over `duration_s`. Inter-arrival gaps are
/// -ln(1-u)/rate with u from a seeded mt19937_64, so the schedule is a pure
/// function of (rate, duration, seed) on every platform.
inline std::vector<std::int64_t> poisson_schedule(double rate_per_s, double duration_s,
                                                  std::uint64_t seed) {
  std::vector<std::int64_t> due;
  if (rate_per_s <= 0.0 || duration_s <= 0.0) return due;
  due.reserve(static_cast<std::size_t>(rate_per_s * duration_s * 1.1) + 16);
  std::mt19937_64 gen(seed);
  const double horizon_ns = duration_s * 1e9;
  double t_ns = 0.0;
  while (true) {
    const double u = static_cast<double>(gen() >> 11) * 0x1.0p-53;  // [0, 1)
    t_ns += -std::log1p(-u) / rate_per_s * 1e9;
    if (t_ns >= horizon_ns) break;
    due.push_back(static_cast<std::int64_t>(t_ns));
  }
  return due;
}

/// Outcome of one fixed-rate open-loop trial, as the knee search sees it.
struct Trial {
  double rate = 0.0;    ///< offered requests/s
  double p99_ms = 0.0;  ///< exact p99 of due-to-answer latency; refused = +inf
  bool ok = false;      ///< p99 within the limit, nothing failed, no backlog
};

struct KneeSearch {
  double limit_ms = 10.0;  ///< latency limit on the p99
  double step = 1.25;      ///< geometric stride while bracketing
  int max_steps = 12;      ///< bracketing trials before giving up
  int refine = 2;          ///< geometric bisections inside the bracket
};

struct KneeResult {
  double knee_rps = 0.0;
  std::vector<Trial> trials;  ///< in the order they ran
};

/// Highest offered rate that still meets the limit. Brackets the knee from
/// `start_rps` with geometric steps, bisects the bracket, then interpolates
/// log(p99) linearly between the last passing and the first failing rate to
/// the rate where p99 reaches the limit — so the estimate moves smoothly with
/// the latency curve instead of snapping to the probe grid. A failing trial's
/// p99 counts as at least twice the limit: it may have failed on refusals or
/// a growing backlog with a p99 still under the limit.
inline KneeResult find_knee(const std::function<Trial(double)>& run, double start_rps,
                            const KneeSearch& search = {}) {
  KneeResult out;
  auto probe = [&](double rate) {
    Trial t = run(rate);
    t.rate = rate;
    out.trials.push_back(t);
    return t;
  };
  Trial first = probe(start_rps);
  Trial pass = first, fail = first;
  bool have_pass = first.ok, have_fail = !first.ok;
  for (int i = 0; i < search.max_steps && !(have_pass && have_fail); ++i) {
    if (have_pass) {
      Trial t = probe(pass.rate * search.step);
      if (t.ok) pass = t; else { fail = t; have_fail = true; }
    } else {
      Trial t = probe(fail.rate / search.step);
      if (t.ok) { pass = t; have_pass = true; } else { fail = t; }
    }
  }
  if (!have_pass) return out;  // knee below every probed rate: report 0
  if (!have_fail) {            // never saturated within max_steps
    out.knee_rps = pass.rate;
    return out;
  }
  for (int i = 0; i < search.refine; ++i) {
    Trial t = probe(std::sqrt(pass.rate * fail.rate));
    if (t.ok) pass = t; else fail = t;
  }
  const double lo = std::log(std::max(pass.p99_ms, 1e-6));
  const double hi = std::log(std::max(fail.p99_ms, 2.0 * search.limit_ms));
  const double target = std::log(search.limit_ms);
  const double frac = hi > lo ? std::clamp((target - lo) / (hi - lo), 0.0, 1.0) : 0.0;
  out.knee_rps = pass.rate + frac * (fail.rate - pass.rate);
  return out;
}

/// Share of a parent span its child spans account for (sum / parent).
inline double coverage(const std::vector<double>& child_times, double parent_time) {
  if (parent_time <= 0.0) return 0.0;
  return std::accumulate(child_times.begin(), child_times.end(), 0.0) / parent_time;
}

/// A span's self time: its duration minus what its children cover, never
/// negative (timer jitter can make children sum past a short parent).
inline double self_time(const std::vector<double>& child_times, double parent_time) {
  return std::max(0.0, parent_time - std::accumulate(child_times.begin(), child_times.end(), 0.0));
}

}  // namespace perfbench
