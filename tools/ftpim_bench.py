#!/usr/bin/env python3
"""Pairwise comparison of perfbench run records (stdlib only).

perfbench/run.py writes one record per run to
.bench_build/results/<workload>-seed<n>-trace<t>.json:
{"provenance": {"workload", "seed", "trace", ...}, "metrics": {name: {"value",
"unit"}}, "checks": [{"name", "ok", "detail"}], "attempted", "failed", ...}.
This tool reads the records of a parent build and of a change as ORDERED
PAIRS (parent[i] was run next to change[i]) and prints, for every metric:
the median of each side, the relative change of the medians, the pairs the
change won, and the parent's spread as IQR / median. The direction of a win
comes from the metric's "better" field in BENCHMARK.json; metrics it does
not list get no win count.

Commands:
  compare --parent P1.json P2.json ... --change C1.json C2.json ...
  --self-test       run the comparison over tools/bench_fixtures/

A metric listed under "end_to_end" in BENCHMARK.json REGRESSES when the
change's median is worse than the parent's by more than the metric's
"bound", taken as a fraction of the parent's median (as an absolute
difference when the parent's median is 0). A change also regresses when
the median share of failed operations grows or a correctness check of any
change record fails.

Exit codes: 0 = no regression, 1 = regression, 2 = usage error, malformed
record, unequal pair counts or records of mixed workloads (or traces).
"""

import io
import json
import os
import statistics
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")
FIXTURES = os.path.join(REPO_ROOT, "tools", "bench_fixtures")


class InputError(Exception):
    """Malformed record, unequal pairing or mixed workloads (exit 2)."""


def load_spec(path=SPEC_PATH):
    """Returns ({metric: better}, {end_to_end metric: bound})."""
    try:
        with open(path) as f:
            spec = json.load(f)
        better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
        bounds = {m["name"]: float(m["bound"]) for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        raise InputError(f"{path}: not a benchmark spec ({e})")
    for name, b in better.items():
        if b not in ("lower", "higher"):
            raise InputError(f"{path}: metric {name}: better must be lower or higher")
    return better, bounds


def load_record(path):
    try:
        with open(path) as f:
            rec = json.load(f)
    except (OSError, ValueError) as e:
        raise InputError(f"{path}: unreadable record ({e})")
    try:
        prov = rec["provenance"]
        key = (str(prov["workload"]), int(prov["trace"]))
        metrics = {name: float(m["value"]) for name, m in rec["metrics"].items()}
        units = {name: str(m.get("unit", "")) for name, m in rec["metrics"].items()}
        attempted = int(rec["attempted"])
        failed = int(rec["failed"])
        bad_checks = [c["name"] for c in rec.get("checks", []) if not c["ok"]]
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        raise InputError(f"{path}: malformed record ({e!r})")
    fail_share = failed / attempted if attempted > 0 else 0.0
    return {"path": path, "key": key, "metrics": metrics, "units": units,
            "fail_share": fail_share, "bad_checks": bad_checks}


def quartiles(values):
    """(q1, q3) by linear interpolation; (v, v) for a single value."""
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def compare(parent_paths, change_paths, spec=None, out=sys.stdout):
    """Prints the pair table; returns the exit code (0 or 1). Raises InputError."""
    if not parent_paths or len(parent_paths) != len(change_paths):
        raise InputError(f"need equal, nonzero counts of parent and change records "
                         f"(got {len(parent_paths)} and {len(change_paths)})")
    better, bounds = spec if spec is not None else load_spec()
    parents = [load_record(p) for p in parent_paths]
    changes = [load_record(p) for p in change_paths]
    keys = {r["key"] for r in parents + changes}
    if len(keys) != 1:
        raise InputError("records mix workloads or traces: " +
                         ", ".join(f"{w}/trace{t}" for w, t in sorted(keys)))
    workload, trace = keys.pop()
    n = len(parents)

    names = list(parents[0]["metrics"])
    names += sorted({m for r in parents + changes for m in r["metrics"]} - set(names))
    print(f"workload {workload}, trace {trace}: {n} parent/change pair(s)", file=out)
    print(f"  {'metric':<30} {'unit':<9} {'parent':>11} {'change':>11} {'change%':>8} "
          f"{'won':>6} {'IQR/med':>8}  gate", file=out)
    regressions = []
    for name in names:
        pv = [r["metrics"].get(name) for r in parents]
        cv = [r["metrics"].get(name) for r in changes]
        if any(v is None for v in pv + cv):
            print(f"  {name:<30} (missing from some records; skipped)", file=out)
            if name in bounds:
                regressions.append(f"{name}: missing from some records")
            continue
        pm, cm = statistics.median(pv), statistics.median(cv)
        rel = (cm - pm) / abs(pm) if pm != 0 else 0.0
        q1, q3 = quartiles(pv)
        spread = (q3 - q1) / abs(pm) if pm != 0 else 0.0
        direction = better.get(name)
        won = "-"
        if direction is not None:
            wins = sum((c < p) if direction == "lower" else (c > p) for p, c in zip(pv, cv))
            won = f"{wins}/{n}"
        gate = ""
        if name in bounds:
            worse = (cm - pm) if direction == "lower" else (pm - cm)
            if pm != 0:
                worse /= abs(pm)
            ok = worse <= bounds[name]
            gate = f"{'ok' if ok else 'REGRESSED'} (bound {bounds[name]:g})"
            if not ok:
                regressions.append(f"{name}: {rel:+.1%} against a bound of {bounds[name]:g}")
        unit = parents[0]["units"].get(name, "")
        print(f"  {name:<30} {unit:<9} {pm:>11.5g} {cm:>11.5g} {rel:>+8.1%} {won:>6} "
              f"{spread:>8.1%}  {gate}", file=out)

    pf = statistics.median(r["fail_share"] for r in parents)
    cf = statistics.median(r["fail_share"] for r in changes)
    print(f"  {'failed share':<30} {'fraction':<9} {pf:>11.5g} {cf:>11.5g}", file=out)
    if cf > pf:
        regressions.append(f"failed share grew from {pf:g} to {cf:g}")
    for r in changes:
        for check in r["bad_checks"]:
            regressions.append(f"{os.path.basename(r['path'])}: check {check} failed")
    for msg in regressions:
        print(f"REGRESSION {msg}", file=out)
    print("result: " + ("regressed" if regressions else "no regression"), file=out)
    return 1 if regressions else 0


def self_test():
    """Runs compare() over the fixture records and checks every exit path."""
    spec = load_spec()
    fx = lambda name: os.path.join(FIXTURES, name)
    parent = [fx(f"parent-{i}.json") for i in (1, 2, 3)]
    cases = [
        ("improved", parent, [fx(f"better-{i}.json") for i in (1, 2, 3)], 0,
         ["peak_rss_mb", "-40.0%", "3/3", "no regression"]),
        ("regressed", parent, [fx(f"worse-{i}.json") for i in (1, 2, 3)], 1,
         ["REGRESSION setup_s", "REGRESSION failed share", "check fleet.matches_reference"]),
        ("mixed workloads", parent, [fx("better-1.json"), fx("better-2.json"), fx("float-1.json")],
         2, []),
        ("malformed", parent[:1], [fx("malformed.json")], 2, []),
        ("unequal pairs", parent, parent[:2], 2, []),
    ]
    failures = []
    for label, parents, changes, want, needles in cases:
        buf = io.StringIO()
        try:
            got = compare(parents, changes, spec, out=buf)
        except InputError as e:
            got = 2
            buf.write(str(e))
        if got != want:
            failures.append(f"{label}: exit {got}, want {want}\n{buf.getvalue()}")
        for needle in needles:
            if needle not in buf.getvalue():
                failures.append(f"{label}: output lacks {needle!r}\n{buf.getvalue()}")
    for f in failures:
        print("self-test FAIL " + f, file=sys.stderr)
    print(f"ftpim_bench self-test: {len(cases) - len(failures)}/{len(cases)} cases ok"
          if not failures else "ftpim_bench self-test: FAILED")
    return 1 if failures else 0


def usage(msg):
    print(f"ftpim_bench: {msg}\n\n{__doc__}", file=sys.stderr)
    return 2


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if not argv or argv[0] != "compare":
        return usage("expected 'compare' or '--self-test'")
    groups = {"--parent": [], "--change": []}
    current = None
    for arg in argv[1:]:
        if arg in groups:
            current = groups[arg]
        elif current is None:
            return usage(f"unexpected argument {arg!r}")
        else:
            current.append(arg)
    try:
        return compare(groups["--parent"], groups["--change"])
    except InputError as e:
        print(f"ftpim_bench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
