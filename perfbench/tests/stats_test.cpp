// Unit tests of the benchmark's own arithmetic (src/stats.hpp).
#include <gtest/gtest.h>

#include <cmath>

#include "perfbench/src/stats.hpp"

namespace perfbench {
namespace {

TEST(PoissonSchedule, SameSeedSameScheduleOtherSeedOtherSchedule) {
  const auto a = poisson_schedule(5000.0, 0.5, 42);
  const auto b = poisson_schedule(5000.0, 0.5, 42);
  const auto c = poisson_schedule(5000.0, 0.5, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonSchedule, MeanRateWithinTolerance) {
  // 20000 expected arrivals: the count's standard deviation is ~141 (0.7%),
  // so a 3% band fails only on a real rate error.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto due = poisson_schedule(10000.0, 2.0, seed);
    EXPECT_NEAR(static_cast<double>(due.size()), 20000.0, 600.0) << "seed " << seed;
  }
}

TEST(PoissonSchedule, SortedInsideHorizonWithExponentialGaps) {
  const auto due = poisson_schedule(1000.0, 10.0, 7);
  ASSERT_FALSE(due.empty());
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_GE(due.front(), 0);
  EXPECT_LT(due.back(), static_cast<std::int64_t>(10e9));
  // Exponential gaps: about 1/e of them exceed the mean gap (1 ms).
  std::int64_t longer = 0;
  for (std::size_t i = 1; i < due.size(); ++i) longer += (due[i] - due[i - 1]) > 1'000'000;
  EXPECT_NEAR(static_cast<double>(longer) / static_cast<double>(due.size() - 1), std::exp(-1.0),
              0.03);
}

TEST(PoissonSchedule, EmptyForNonPositiveRateOrDuration) {
  EXPECT_TRUE(poisson_schedule(0.0, 1.0, 1).empty());
  EXPECT_TRUE(poisson_schedule(100.0, 0.0, 1).empty());
}

TEST(Percentile, NearestRankIsExact) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted 1..100
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(percentile({7.5}, 99.0), 7.5);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  // Values between ranks are never interpolated.
  EXPECT_EQ(percentile({1.0, 10.0}, 50.0), 1.0);
  EXPECT_EQ(percentile({1.0, 10.0}, 51.0), 10.0);
}

TEST(Percentile, HighestSupportedPercentileKeepsTenBeyond) {
  EXPECT_EQ(supported_percentile(19), 0.0);    // median leaves 9 beyond
  EXPECT_EQ(supported_percentile(20), 50.0);   // median leaves 10
  EXPECT_EQ(supported_percentile(99), 50.0);   // p90 leaves 9
  EXPECT_EQ(supported_percentile(100), 90.0);  // p90 leaves 10
  EXPECT_EQ(supported_percentile(999), 90.0);  // p99 leaves 9
  EXPECT_EQ(supported_percentile(1000), 99.0);
  EXPECT_EQ(supported_percentile(10000), 99.9);
  EXPECT_EQ(supported_percentile(1000000), 99.999);
}

TEST(Percentile, SummarizeReportsCountAndTopPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const Timing t = summarize(v);
  EXPECT_EQ(t.n, 1000);
  EXPECT_EQ(t.p50, 500.0);
  EXPECT_EQ(t.p99, 990.0);
  EXPECT_EQ(t.top_q, 99.0);
  EXPECT_EQ(t.top, 990.0);
}

TEST(Percentile, WindowedPercentileIsTheMedianOfSlicePercentiles) {
  // Five slices of 100; slice 2 holds a stall (large values). The pooled p99
  // lands in the stall, the windowed p99 does not.
  std::vector<double> v;
  for (int w = 0; w < 5; ++w) {
    for (int i = 1; i <= 100; ++i) v.push_back(w == 2 ? 1000.0 + i : i);
  }
  EXPECT_EQ(percentile(v, 99.0), 1095.0);
  EXPECT_EQ(windowed_percentile(v, 99.0, 5), 99.0);
  EXPECT_EQ(windowed_percentile(v, 99.0, 1), percentile(v, 99.0));
  EXPECT_EQ(windowed_percentile({}, 99.0, 5), 0.0);
}

// Synthetic M/M/1-like curve: p99 grows as 1/(1 - rate/capacity) and the
// trial fails (refusals) once the rate passes capacity.
Trial synthetic(double rate, double capacity, double limit_ms) {
  Trial t;
  if (rate >= capacity) {
    t.p99_ms = 1e9;
    t.ok = false;
    return t;
  }
  t.p99_ms = 1.0 / (1.0 - rate / capacity);
  t.ok = t.p99_ms <= limit_ms;
  return t;
}

TEST(KneeSearch, FindsTheLimitCrossingOfASyntheticCurve) {
  // p99 = 10 ms at rate = 0.9 * capacity.
  const double capacity = 20000.0;
  KneeSearch search;
  search.refine = 6;
  const KneeResult r =
      find_knee([&](double rate) { return synthetic(rate, capacity, 10.0); }, 4000.0, search);
  EXPECT_NEAR(r.knee_rps, 0.9 * capacity, 0.02 * capacity);
  // Every probe is recorded, and the knee lies between a pass and a fail.
  ASSERT_GE(r.trials.size(), 3u);
  double best_pass = 0.0, worst_fail = 1e18;
  for (const Trial& t : r.trials) {
    if (t.ok) best_pass = std::max(best_pass, t.rate);
    else worst_fail = std::min(worst_fail, t.rate);
  }
  EXPECT_GE(r.knee_rps, best_pass);
  EXPECT_LE(r.knee_rps, worst_fail);
}

TEST(KneeSearch, BracketsDownwardWhenTheStartRateAlreadyFails) {
  const KneeResult r =
      find_knee([](double rate) { return synthetic(rate, 1000.0, 10.0); }, 5000.0);
  EXPECT_GT(r.knee_rps, 0.0);
  EXPECT_LT(r.knee_rps, 1000.0);
}

TEST(KneeSearch, IsMonotoneInCapacity) {
  double prev = 0.0;
  for (const double capacity : {5000.0, 8000.0, 13000.0, 21000.0}) {
    const KneeResult r =
        find_knee([&](double rate) { return synthetic(rate, capacity, 10.0); }, 3000.0);
    EXPECT_GT(r.knee_rps, prev) << "capacity " << capacity;
    prev = r.knee_rps;
  }
}

TEST(KneeSearch, AFailureWithALowP99StaysInsideTheBracket) {
  // Every rate from 10000 up fails on refusals while its p99 reads 4 ms:
  // the estimate must stay between the last pass and the first failure,
  // not jump to the failing rate.
  KneeSearch search;
  search.refine = 0;
  const KneeResult r = find_knee(
      [](double rate) { return Trial{rate, rate < 10000.0 ? 2.0 : 4.0, rate < 10000.0}; }, 8000.0,
      search);
  ASSERT_EQ(r.trials.size(), 2u);
  EXPECT_GT(r.knee_rps, 8000.0);
  EXPECT_LT(r.knee_rps, 10000.0);
}

TEST(KneeSearch, ReportsZeroWhenNothingPasses) {
  KneeSearch search;
  search.max_steps = 3;
  const KneeResult r = find_knee([](double) { return Trial{0.0, 1e9, false}; }, 100.0, search);
  EXPECT_EQ(r.knee_rps, 0.0);
  EXPECT_EQ(r.trials.size(), 4u);
}

TEST(Trace, CoverageAndSelfTime) {
  EXPECT_DOUBLE_EQ(coverage({2.0, 3.0, 4.0}, 10.0), 0.9);
  EXPECT_DOUBLE_EQ(self_time({2.0, 3.0, 4.0}, 10.0), 1.0);
  // Children summing past the parent (timer jitter) clamp self time at 0.
  EXPECT_DOUBLE_EQ(self_time({6.0, 5.0}, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(coverage({6.0, 5.0}, 10.0), 1.1);
  EXPECT_EQ(coverage({1.0}, 0.0), 0.0);
}

}  // namespace
}  // namespace perfbench
