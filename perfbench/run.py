#!/usr/bin/env python3
"""End-to-end benchmark of ftpim: one command, one workload, one seed.

    python3 perfbench/run.py --workload float --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --test

Run from the repository root. Builds perfbench/ (which compiles ../src) into
.bench_build/, runs the benchmark binary, checks its outputs, prints every
metric by name with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end_to_end metrics of BENCHMARK.json, --trace 1 the
per_layer ones. A full record of each run (metrics, checks, facts and
provenance) is written to .bench_build/results/. Exit status: 0 when every
correctness check passed, 1 when one failed, 2 on a usage or build error.
See perfbench/README.md for the workloads and the metric map.
"""
import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ftpim_perfbench")
REFERENCE = os.path.join(HERE, "fleet_reference.json")
WORKLOADS = ("float", "quant-heal")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    """Configure and build `target` in .bench_build; build output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", target, "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def provenance():
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                 timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain")
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "git_dirty": (dirty != "") if dirty is not None else None,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except FileNotFoundError:
        return {}


def check_fleet(result, workload, record):
    """The simulated fleet must equal the stored reference exactly."""
    stats = result["facts"].get("fleet.stats")
    level = result["facts"].get("kernel_level")
    key = str(stats["fleet_seed"])
    reference = load_reference()
    table = reference.setdefault(workload, {}).setdefault(level, {})
    if record:
        table[key] = stats
        with open(REFERENCE, "w") as f:
            json.dump(reference, f, indent=1, sort_keys=True)
            f.write("\n")
    want = table.get(key)
    if want is None:
        return {"name": "fleet.matches_reference", "ok": False,
                "detail": f"no stored reference for {workload}/{level}/fleet seed {key}"}
    diff = sorted(k for k in set(want) | set(stats) if want.get(k) != stats.get(k))
    return {"name": "fleet.matches_reference", "ok": not diff,
            "detail": "simulated fleet statistics equal the stored reference exactly"
                      + ("" if not diff else "; differing: " + ", ".join(diff))}


def run_one(workload, seed, seconds, trace, record):
    """Runs the benchmark binary once; returns (final_line_dict, exit_code) or None on error."""
    spec = benchmark_spec()
    wanted = spec["per_layer" if trace else "end_to_end"]
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} run timed out after {RUN_TIMEOUT_S}s")
        return None
    lines = [l for l in proc.stdout.splitlines() if l.startswith("PERFBENCH_RESULT ")]
    if proc.returncode != 0 or not lines:
        log(proc.stdout[-2000:])
        log(f"perfbench: ftpim_perfbench exited with {proc.returncode}")
        return None
    result = json.loads(lines[-1].split(" ", 1)[1])
    checks = result["checks"] + [check_fleet(result, workload, record)]
    metrics = result["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    for name in missing:
        checks.append({"name": "reported." + name, "ok": False,
                       "detail": "metric listed in BENCHMARK.json was not measured"})
    correct = all(c["ok"] for c in checks)

    facts = result["facts"]
    prov = provenance()
    prov.update({k: facts.get(k) for k in ("kernel_level", "compiler", "flags", "threads")})
    prov.update({"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)})
    print(f"== {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    units = {m["name"]: m["unit"] for m in wanted}
    for name, m in metrics.items():
        tag = "" if name in units else "  (not gated)"
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}{tag}")
    if not trace:
        attempted = max(1, result["attempted"])
        print(f"  {'fail_frac':<34} {result['failed'] / attempted:>16.6g} fraction"
              f"  ({result['failed']} of {result['attempted']} operations)")
    for name, value in facts.items():
        if name not in prov:
            print(f"  . {name}: {json.dumps(value)}")
    for c in checks:
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")

    results_dir = os.path.join(BUILD, "results")
    os.makedirs(results_dir, exist_ok=True)
    record_path = os.path.join(results_dir, f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(record_path, "w") as f:
        json.dump({"provenance": prov, "metrics": metrics, "checks": checks, "facts": facts,
                   "attempted": result["attempted"], "failed": result["failed"]}, f, indent=1)

    final = {
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }
    return final, (0 if correct else 1)


def self_test():
    if not build("perfbench_tests"):
        return 2
    return subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--test", action="store_true", help="build and run the benchmark's tests")
    parser.add_argument("--record-fleet-reference", action="store_true",
                        help="store this run's fleet statistics as the reference")
    args = parser.parse_args()
    if args.test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace) or args.seconds <= 0:
        parser.error("--workload, --seed, --seconds > 0 and --trace are required")
    if not build("ftpim_perfbench"):
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    status, final = 0, None
    for w in workloads:
        out = run_one(w, args.seed, args.seconds, bool(args.trace), args.record_fleet_reference)
        if out is None:
            return 2
        final, code = out
        status = max(status, code)
        if len(workloads) > 1:
            print("result " + json.dumps(final))
    print(json.dumps(final))
    return status


if __name__ == "__main__":
    sys.exit(main())
