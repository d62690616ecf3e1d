#!/usr/bin/env python3
"""Self-test of the design-sweep benchmark.

Run from the repository root:

    python3 perfbench/selftest.py [--quick]

Checks:

 1. For every workload perfbench_driver has, a tiny-size run, untraced and
    traced, passes its output checks and emits exactly the metrics
    BENCHMARK.json names, each with its unit.
 2. For every such workload, two seeds generate different inputs (the
    input digest perfbench_driver reports) under the same metric names.
 3. For every workload BENCHMARK.json lists, a delay injected by
    perfbench_driver's own wrapper around the workload's dominant call
    (the apps entry point that runs the ODE ensemble and, on
    sec45-crossval, the SPICE sweep; nearly all of a pass) is
    flagged by the benchmark's regression rule: over five clean and
    five injected full-size 30-second runs, alternated so both see the
    same host load, the median cold throughput of the injected runs is
    worse than that of the clean runs by more than the metric's bound.
    The delay is sized to take the throughput a third of the bound past
    the bound (a sleep of t / (1 - t) of the call's own time for a
    target drop t = 4/3 x bound), because a move of exactly the bound is
    the rule's threshold, where either verdict is right. --quick skips
    this part, which takes about twelve minutes.

Exits 0 when every check passes.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sec45-crossval", "puf-crp", "maxcut-table1")
FLAG_METRIC = "cold_instances_per_s"
RUNS_PER_SIDE = 5
INJECTION_RUN_SECONDS = 30


def bench(workload, seed, seconds, trace=0, extra=()):
    """Runs run.py; returns (result JSON, exit code, run stamp)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    with open(os.path.join(ROOT, ".bench_build", "out", workload,
                           "stamp.json")) as f:
        stamp = json.load(f)
    return result, proc.returncode, stamp


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    tiny = ["--tiny"]
    for workload in WORKLOADS:
        digests = {}
        names = {}
        for seed, trace in ((1, 0), (1, 1), (2, 0)):
            result, code, stamp = bench(workload, seed, 1, trace, tiny)
            label = "%s tiny seed %d trace %d" % (workload, seed, trace)
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0, label + ": correct, exit 0")
            if result is None:
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(units == expected[trace],
                   label + ": every named metric with its unit")
            if trace == 0:
                digests[seed] = stamp["input_digest"]
                names[seed] = sorted(units)
        expect(digests.get(1) != digests.get(2) and names.get(1) == names.get(2),
               workload + ": seeds 1 and 2 differ in inputs, not metric names")

    if "--quick" in sys.argv[1:]:
        return 1 if failures else 0

    # Clean and injected runs alternate so both see the same host load;
    # the verdict compares their medians, as a regression check would.
    bound = bounds[FLAG_METRIC]
    target = 4 * bound / 3
    share = target / (1 - target)
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"clean": [], "injected": []}
        for _ in range(RUNS_PER_SIDE):
            injected = ["--inject-delay", str(share)]
            for label, extra in (("clean", []), ("injected", injected)):
                result, code, _ = bench(workload, 3, INJECTION_RUN_SECONDS,
                                        0, extra)
                expect(code == 0 and result is not None and result["correct"],
                       "%s %s run correct" % (workload, label))
                if result is not None:
                    runs[label].append(
                        result["metrics"][FLAG_METRIC]["value"])
        if not (runs["clean"] and runs["injected"]):
            continue
        clean = statistics.median(runs["clean"])
        drop = (clean - statistics.median(runs["injected"])) / clean
        noise = (max(runs["clean"]) - min(runs["clean"])) / clean
        print("      %s: %s clean %.1f/s (spread %.1f%%), injected %+.1f%%"
              % (workload, FLAG_METRIC, clean, 100 * noise, -100 * drop))
        expect(drop > bound, "%s: delay past the bound (%.0f%%) is flagged"
               % (workload, 100 * bound))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
