// Environment-driven experiment scaling.
//
// The paper's experiments ran 160-epoch GPU training on real CIFAR; on the
// reproduction host (CPU-only) the benches default to reduced sizes. All
// scale knobs live here so every bench/example interprets them identically:
//
//   FTPIM_SCALE  = quick | medium | full   (preset bundle; default quick)
//   FTPIM_EPOCHS = <int>    override epochs per training stage
//   FTPIM_RUNS   = <int>    override num_of_runs for defect averaging
//   FTPIM_TRAIN  = <int>    override train-set size
//   FTPIM_TEST   = <int>    override test-set size
//   FTPIM_IMG    = <int>    override image side (HxW)
//   FTPIM_WIDTH  = <int>    override ResNet base width
//   FTPIM_THREADS= <int>    override worker thread count
#pragma once

#include <string>

namespace ftpim {

struct RunScale {
  int epochs = 3;          ///< epochs per training stage (paper: 160)
  int defect_runs = 6;     ///< Monte-Carlo defect maps per point (paper: 100)
  int train_size = 896;    ///< training samples (CIFAR: 50000)
  int test_size = 384;     ///< test samples (CIFAR: 10000)
  int image_size = 16;     ///< image side (CIFAR: 32)
  int resnet_width = 8;    ///< ResNet stage-1 channels (paper: 16)
  int batch_size = 64;
  std::string name = "quick";
};

/// Upper bounds shared by run_scale() and the benches/examples that read the
/// same knobs directly.
inline constexpr int kMaxEpochs = 100000;
inline constexpr int kMaxRuns = 100000;
inline constexpr int kMaxSamples = 10000000;

/// Resolves the active scale from the environment (see file comment). An
/// unknown FTPIM_SCALE preset or a malformed override throws
/// ContractViolation rather than silently running `quick`.
[[nodiscard]] RunScale run_scale();

// Every numeric knob parses strictly; there is one parser per type. The
// environment is read only here (the raw-getenv lint rule enforces it).

/// Reads a float knob: the value must parse IN FULL as a finite number inside
/// (lo, hi] or the call throws ContractViolation naming the env var and the
/// offending text ("0.5x" is a typo, not 0.5). Unset/empty returns fallback
/// (the knob is optional, not mistyped).
[[nodiscard]] double env_double_in(const char* name, double fallback, double lo_exclusive,
                                   double hi_inclusive);

/// Reads an integer knob: the value must parse IN FULL as a decimal integer
/// inside [lo, hi] or the call throws ContractViolation ("8x" is a typo, not
/// 8). Unset/empty returns fallback.
[[nodiscard]] int env_int_in(const char* name, int fallback, int lo_inclusive, int hi_inclusive);

/// Reads a string env var, returning fallback when unset or empty.
[[nodiscard]] std::string env_string(const char* name, const std::string& fallback);

}  // namespace ftpim
