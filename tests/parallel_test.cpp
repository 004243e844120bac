#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/config.hpp"
#include "src/common/parallel.hpp"

namespace ftpim {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; }, /*min_parallel_trip=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoOp) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ParallelFor, SmallTripRunsSerially) {
  // Below min_parallel_trip the caller thread runs everything (observable
  // via exact sequential ordering).
  std::vector<std::size_t> order;
  parallel_for(0, 4, [&](std::size_t i) { order.push_back(i); }, /*min_parallel_trip=*/100);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ParallelForChunks, ChunksPartitionRange) {
  std::vector<std::atomic<int>> hits(5000);
  parallel_for_chunks(
      0, hits.size(),
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
      },
      /*min_parallel_trip=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunks, OffsetRangesWork) {
  std::atomic<long long> sum{0};
  parallel_for_chunks(100, 200, [&](std::size_t lo, std::size_t hi) {
    long long local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += static_cast<long long>(i);
    sum += local;
  });
  EXPECT_EQ(sum.load(), (100 + 199) * 100 / 2);
}

TEST(NumThreads, PositiveAndStable) {
  EXPECT_GE(num_threads(), 1);
  EXPECT_EQ(num_threads(), num_threads());
}

TEST(NumThreads, OverrideSetAndClear) {
  const int base = num_threads();
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  set_num_threads(1);
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(0);  // clears the override
  EXPECT_EQ(num_threads(), base);
}

TEST(NumThreads, ConcurrentOverrideAndLoopsAreRaceFree) {
  // Hammers the documented contract of set_num_threads: concurrent override
  // writes, num_threads() reads, and parallel_for dispatch must be free of
  // data races (the TSan config of scripts/ci.sh runs this test) and must
  // never corrupt loop coverage.
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    int n = 1;
    while (!stop.load(std::memory_order_relaxed)) {
      set_num_threads(n);
      n = (n % 4) + 1;
    }
    set_num_threads(0);
  });
  for (int round = 0; round < 50; ++round) {
    const int seen = num_threads();
    EXPECT_GE(seen, 1);
    std::vector<std::atomic<int>> hits(257);
    parallel_for(0, hits.size(), [&](std::size_t i) { hits[i]++; }, /*min_parallel_trip=*/1);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  EXPECT_GE(num_threads(), 1);
}

TEST(EnvHelpers, ParseAndFallback) {
  EXPECT_EQ(env_int_in("FTPIM_SURELY_UNSET_VAR", 17, 0, 100), 17);
  EXPECT_DOUBLE_EQ(env_double_in("FTPIM_SURELY_UNSET_VAR", 2.5, 0.0, 10.0), 2.5);
  EXPECT_EQ(env_string("FTPIM_SURELY_UNSET_VAR", "x"), "x");
  setenv("FTPIM_TEST_ENV_INT", "42", 1);
  EXPECT_EQ(env_int_in("FTPIM_TEST_ENV_INT", 0, 0, 100), 42);
  // Garbage is a typo, never a silent fallback.
  setenv("FTPIM_TEST_ENV_INT", "garbage", 1);
  EXPECT_THROW((void)env_int_in("FTPIM_TEST_ENV_INT", 9, 0, 100), ContractViolation);
  unsetenv("FTPIM_TEST_ENV_INT");
}

TEST(EnvHelpers, StrictDoubleRejectsJunkAndOutOfRange) {
  // env_double_in is the hardened variant: a typo'd knob (FTPIM_ADC_RANGE
  // and friends) must fail loudly instead of silently running the fallback.
  unsetenv("FTPIM_TEST_ENV_RANGE");
  EXPECT_DOUBLE_EQ(env_double_in("FTPIM_TEST_ENV_RANGE", 0.25, 0.0, 1.0), 0.25);
  setenv("FTPIM_TEST_ENV_RANGE", "", 1);
  EXPECT_DOUBLE_EQ(env_double_in("FTPIM_TEST_ENV_RANGE", 0.25, 0.0, 1.0), 0.25);
  setenv("FTPIM_TEST_ENV_RANGE", "0.5", 1);
  EXPECT_DOUBLE_EQ(env_double_in("FTPIM_TEST_ENV_RANGE", 0.25, 0.0, 1.0), 0.5);
  setenv("FTPIM_TEST_ENV_RANGE", "1.0", 1);  // hi bound is inclusive
  EXPECT_DOUBLE_EQ(env_double_in("FTPIM_TEST_ENV_RANGE", 0.25, 0.0, 1.0), 1.0);
  // Trailing junk, non-numbers, NaN, and out-of-range values all throw a
  // ContractViolation naming the variable.
  for (const char* bad : {"0.5x", "garbage", "nan", "0", "-0.25", "1.5"}) {
    setenv("FTPIM_TEST_ENV_RANGE", bad, 1);
    EXPECT_THROW((void)env_double_in("FTPIM_TEST_ENV_RANGE", 0.25, 0.0, 1.0), ContractViolation)
        << bad;
  }
  unsetenv("FTPIM_TEST_ENV_RANGE");
}

TEST(EnvHelpers, StrictIntRejectsJunkAndOutOfRange) {
  // env_int_in backs FTPIM_THREADS (src/common/parallel.cpp): a mistyped
  // worker count must throw, not silently pick hardware_concurrency. The
  // helper is exercised directly because num_threads() caches its first
  // resolution behind a magic static.
  unsetenv("FTPIM_TEST_ENV_THREADS");
  EXPECT_EQ(env_int_in("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), 4);
  setenv("FTPIM_TEST_ENV_THREADS", "", 1);
  EXPECT_EQ(env_int_in("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), 4);
  setenv("FTPIM_TEST_ENV_THREADS", "8", 1);
  EXPECT_EQ(env_int_in("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), 8);
  setenv("FTPIM_TEST_ENV_THREADS", "1", 1);  // both bounds inclusive
  EXPECT_EQ(env_int_in("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), 1);
  setenv("FTPIM_TEST_ENV_THREADS", "4096", 1);
  EXPECT_EQ(env_int_in("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), 4096);
  for (const char* bad : {"8x", "4.5", "garbage", "0", "-2", "4097", "80000"}) {
    setenv("FTPIM_TEST_ENV_THREADS", bad, 1);
    EXPECT_THROW((void)env_int_in("FTPIM_TEST_ENV_THREADS", 4, 1, 4096), ContractViolation)
        << bad;
  }
  unsetenv("FTPIM_TEST_ENV_THREADS");
}

TEST(RunScale, QuickDefaultsAndOverrides) {
  unsetenv("FTPIM_SCALE");
  unsetenv("FTPIM_EPOCHS");
  const RunScale quick = run_scale();
  EXPECT_EQ(quick.name, "quick");
  EXPECT_GT(quick.epochs, 0);
  setenv("FTPIM_SCALE", "full", 1);
  const RunScale full = run_scale();
  EXPECT_EQ(full.name, "full");
  EXPECT_EQ(full.epochs, 160);
  EXPECT_EQ(full.defect_runs, 100);
  setenv("FTPIM_EPOCHS", "5", 1);
  EXPECT_EQ(run_scale().epochs, 5);
  unsetenv("FTPIM_SCALE");
  unsetenv("FTPIM_EPOCHS");
}

TEST(RunScale, UnknownPresetThrows) {
  // A mistyped preset must fail loudly, not run `quick`.
  for (const char* bad : {"quik", "Full", "medium ", "fast"}) {
    setenv("FTPIM_SCALE", bad, 1);
    EXPECT_THROW((void)run_scale(), ContractViolation) << bad;
  }
  setenv("FTPIM_SCALE", "", 1);  // empty is unset: the default preset
  EXPECT_EQ(run_scale().name, "quick");
  unsetenv("FTPIM_SCALE");
}

TEST(RunScale, OverridesParseStrictly) {
  // A mistyped override must throw: "8x" is not 8, and "abc" is not the
  // preset's value.
  unsetenv("FTPIM_SCALE");
  for (const char* name : {"FTPIM_EPOCHS", "FTPIM_RUNS", "FTPIM_TRAIN", "FTPIM_TEST",
                           "FTPIM_IMG", "FTPIM_WIDTH", "FTPIM_BATCH"}) {
    for (const char* bad : {"8x", "abc", "4.5", "0", "-3"}) {
      setenv(name, bad, 1);
      EXPECT_THROW((void)run_scale(), ContractViolation) << name << "=" << bad;
    }
    setenv(name, "8", 1);
    EXPECT_NO_THROW((void)run_scale()) << name;
    unsetenv(name);
  }
  setenv("FTPIM_RUNS", "7", 1);
  EXPECT_EQ(run_scale().defect_runs, 7);
  unsetenv("FTPIM_RUNS");
}

}  // namespace
}  // namespace ftpim
