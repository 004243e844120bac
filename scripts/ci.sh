#!/usr/bin/env bash
# Local CI matrix for ftpim: builds every target (library, tests, benches,
# examples) and runs ctest under each configuration:
#
#   analyze    no build: the semantic analyzer (tools/ftpim_analyze.py) over
#              the tree (layering, hot-path audit, exception surface) plus its
#              fixture self-test; writes a JSON findings artifact; then the
#              fixture self-test of the perfbench pair comparison
#              (tools/ftpim_bench.py compare)
#   default    plain Release build, full suite + determinism linter
#   scalar     same build tree as default, full suite with FTPIM_KERNEL=scalar
#              — keeps the portable micro-kernel (the fallback for non-AVX2
#              hosts) fully tested on AVX2 machines
#   stress     same build tree as default, full suite run as
#              ctest -j8 --schedule-random --repeat until-fail:5 — catches
#              cases that share state across processes (e.g. files under the
#              temp dir) and only fail when scheduled side by side
#   address    ASan/LSan, full suite
#   undefined  UBSan (non-recovering), full suite
#   thread     TSan, concurrency-sensitive subset with FTPIM_THREADS=4
#   crash      debug-tier contracts ON, checkpoint/resume subset: the seeded
#              crash-injection sweep (every truncation offset and bit flip of
#              a checkpoint must be rejected with a typed CheckpointError)
#              plus kill/resume bit-equivalence at 1 and 4 threads
#   bench      no ctest: perfbench's own tests (perfbench/run.py --test), then
#              one 10 s run of every workload at seed 1, trace 0. Fails when
#              any benchmark correctness check fails (exact fleet reference
#              match, bit-exact rounds, golden_match and defect_acc floors);
#              its timings are printed, not gated
#
# Usage:
#   scripts/ci.sh             # run the whole matrix
#   scripts/ci.sh undefined   # run a single configuration
#
# Build trees live under build-ci/<config> so the developer build/ is never
# clobbered. Total runtime is dominated by the three sanitizer builds.
set -euo pipefail

REPO_ROOT="$(cd -- "$(dirname -- "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_ROOT="${REPO_ROOT}/build-ci"
JOBS="$(nproc 2>/dev/null || echo 4)"

# TSan-relevant subset: parallel_for machinery, the packed GEMM/conv kernel
# backend (worker-partitioned macro loops + thread-local pack arenas), module
# cloning, Monte-Carlo defect evaluation, fault-injection sessions, the
# serving layer's queue and worker threads, the quantized crossbar datapath
# (internally parallel mvm_batch + hooked eval forwards inside Monte-Carlo
# workers; Quant*/Qinfer* suites), the fleet simulator's parallel device
# fan-out (Fleet* suites, incl. thread-count-invariance checks), replica
# pools re-deploying in place over one shared pristine source (Replica*
# suites), training at 1 and 4 workers (TrainGolden digests, TrainGroup's
# per-worker conv partials, the TrainMemory budget), and the contract layer
# they all guard.
# Kept as a regex so newly added tests matching these names are picked up
# automatically. The quantized suites also run under the `scalar` leg
# (FTPIM_KERNEL=scalar, full suite), which keeps the portable int8 kernel
# exercised on AVX2 hosts.
THREAD_SUBSET='Parallel|Clone|Defect|Session|Eval|Check|Logging|Serve|Aging|Kernel|Gemm|Quant|Qinfer|Abft|Scrub|Fleet|Replica|Train'

# Crash-safety subset: the container/CRC primitives, the seeded corruption
# sweep (CheckpointCrashInjection: truncation at every framing boundary plus
# deterministic bit flips, all of which must surface as typed CheckpointError),
# the Python inspector agreement tests, and kill/resume equivalence (training
# checkpoints via FtResume, fleet sweeps via FleetResume).
CRASH_SUBSET='Crc32c|AtomicFile|Checkpoint|ByteCodec|ReramCodec|CkptTool|FtResume|FleetResume|Serialize'

run_config() {
  # Optional 4th arg reuses another config's build tree (the scalar and
  # stress legs only change how the suite runs, so rebuilding would be waste).
  # CTEST_JOBS overrides the ctest parallelism (default: one per CPU).
  local name="$1" cmake_args="$2" ctest_args="$3"
  local bdir="${BUILD_ROOT}/${4:-${name}}"
  echo "==> [${name}] configure"
  # shellcheck disable=SC2086  # cmake_args is a deliberate word list
  cmake -B "${bdir}" -S "${REPO_ROOT}" ${cmake_args}
  echo "==> [${name}] build (all targets, incl. bench/ and examples/)"
  cmake --build "${bdir}" -j "${JOBS}"
  echo "==> [${name}] ctest ${ctest_args}"
  # shellcheck disable=SC2086
  (cd "${bdir}" && ctest --output-on-failure -j "${CTEST_JOBS:-${JOBS}}" ${ctest_args})
  echo "==> [${name}] OK"
}

run_analyze() {
  # Pure-Python leg: no configure/build. The JSON artifact lands next to the
  # build trees so CI uploads can grab findings even on a green run.
  local out_dir="${BUILD_ROOT}/analyze"
  mkdir -p "${out_dir}"
  echo "==> [analyze] tree"
  python3 "${REPO_ROOT}/tools/ftpim_analyze.py" --root "${REPO_ROOT}" \
      --json "${out_dir}/findings.json"
  echo "==> [analyze] selftest"
  python3 "${REPO_ROOT}/tools/ftpim_analyze.py" --self-test
  echo "==> [analyze] bench compare selftest"
  python3 "${REPO_ROOT}/tools/ftpim_bench.py" --self-test
  echo "==> [analyze] OK (artifact: ${out_dir}/findings.json)"
}

run_bench() {
  # run.py builds its own tree (.bench_build/) from this checkout and exits
  # non-zero when a correctness check fails.
  echo "==> [bench] perfbench tests"
  (cd "${REPO_ROOT}" && python3 perfbench/run.py --test)
  echo "==> [bench] every workload, seed 1, 10 s, trace 0"
  (cd "${REPO_ROOT}" && python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0)
  echo "==> [bench] OK (timings are report-only)"
}

declare -A CMAKE_ARGS=(
  [analyze]=""
  [default]="-DFTPIM_WERROR=ON"
  [scalar]="-DFTPIM_WERROR=ON"
  [stress]="-DFTPIM_WERROR=ON"
  [address]="-DFTPIM_SANITIZE=address"
  [undefined]="-DFTPIM_SANITIZE=undefined"
  [thread]="-DFTPIM_SANITIZE=thread"
  [crash]="-DFTPIM_WERROR=ON -DFTPIM_DCHECKS=ON"
  [bench]=""
)
declare -A CTEST_ARGS=(
  [analyze]=""
  [default]=""
  [scalar]="-E ^(lint|analyze)"
  [stress]="--schedule-random --repeat until-fail:5"
  [address]="-E ^(lint|analyze)"
  [undefined]="-E ^(lint|analyze)"
  [thread]="-R ${THREAD_SUBSET}"
  [crash]="-R ${CRASH_SUBSET}"
  [bench]=""
)

ORDER=(analyze default scalar stress address undefined thread crash bench)
if [[ $# -gt 0 ]]; then
  ORDER=("$@")
fi

for cfg in "${ORDER[@]}"; do
  if [[ -z "${CMAKE_ARGS[${cfg}]+x}" ]]; then
    echo "ci.sh: unknown config '${cfg}' (known: ${!CMAKE_ARGS[*]})" >&2
    exit 2
  fi
  if [[ "${cfg}" == "analyze" ]]; then
    run_analyze
  elif [[ "${cfg}" == "bench" ]]; then
    run_bench
  elif [[ "${cfg}" == "thread" ]]; then
    FTPIM_THREADS=4 run_config "${cfg}" "${CMAKE_ARGS[${cfg}]}" "${CTEST_ARGS[${cfg}]}"
  elif [[ "${cfg}" == "scalar" ]]; then
    FTPIM_KERNEL=scalar run_config "${cfg}" "${CMAKE_ARGS[${cfg}]}" "${CTEST_ARGS[${cfg}]}" default
  elif [[ "${cfg}" == "stress" ]]; then
    CTEST_JOBS=8 run_config "${cfg}" "${CMAKE_ARGS[${cfg}]}" "${CTEST_ARGS[${cfg}]}" default
  else
    run_config "${cfg}" "${CMAKE_ARGS[${cfg}]}" "${CTEST_ARGS[${cfg}]}"
  fi
done

echo "ci.sh: all configurations passed"
