#!/usr/bin/env python3
"""End-to-end design-sweep benchmark for the Ark library.

Usage (from the repository root):

    python3 perfbench/run.py --workload sec45-crossval --seed 1 \\
        --seconds 20 --trace 0

Builds the library and perfbench/driver.cc in the release-bench
configuration (Release, LTO, baseline ISA) under .bench_build/, measures
set-up in several fresh processes, then runs the workload driver and
prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see BENCHMARK.json for the lists and perfbench/provenance.json for what
each workload stresses and which layer metric should move which
end-to-end metric). The exit code is 0 only when every output check
passed. A run stamp (commit, build, host, thread counts, overrides) and,
for traced runs, a merged Chrome trace are left in
.bench_build/out/<workload>/.
"""

import argparse
import glob
import selectors
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("sec45-crossval", "puf-crp", "maxcut-table1")
OVERRIDES = ("ARK_JIT_FORCE", "ARK_TAPE_REASSOC", "ARK_JIT_CACHE_DIR", "ARK_CC")
SETUP_PROCESSES = 101
MERGED_TRACE_PAIRS = 4  # traced pairs kept in trace.json (all are analysed)
DRIVER_TIMEOUT_S = 170

# Layer of each span the benchmark or the library records. Library spans
# not listed inherit the layer of the span they nest in.
SPAN_LAYER = {
    "dg.build": "dg.build_s",
    "engine.compile": "engine.lookup_s",
    "ark.compile.lower": "compiler.compile_s",
    "ark.compile.tapes": "compiler.compile_s",
    "sim.ensemble": "sim.ensemble_s",
    "spice.map": "spice.map_s",
    "spice.groups": "spice.sweep_s",
    "spice.sweep": "spice.sweep_s",
    "apps.score": "apps.score_s",
}
ROOT_SPANS = ("bench.cold", "bench.warm")
TIMED_LAYERS = sorted(set(SPAN_LAYER.values()) | {"validator.validate_s"})


def die(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (few instances per pass)")
    parser.add_argument("--inject-delay", type=float, default=0.0,
                        help="after each dominant call, sleep this share of "
                             "the call's own time (self-test)")
    args = parser.parse_args()
    if args.seed < 1 or args.seconds <= 0:
        die("--seed must be >= 1 and --seconds > 0")
    return args


def build():
    """Configures once, then rebuilds perfbench_driver (a no-op when
    current)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("no ark source tree next to perfbench/ (expected %s/src)" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed (log: %s)" % log_path)


def source_digest():
    """Content hash of what the measured binary is built from; the
    checkout the benchmark runs in need not be a git repository."""
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    files += glob.glob(os.path.join(ROOT, "src", "**", "*"), recursive=True)
    files += glob.glob(os.path.join(HERE, "*"))
    for path in sorted(f for f in files if os.path.isfile(f)):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return None


def run_driver(args, env, extra):
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed)]
    cmd += extra
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--t0-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("driver timed out after %d s" % DRIVER_TIMEOUT_S)
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("driver exited %d without a result" % proc.returncode)
    try:
        return json.loads(lines[-1]), proc.returncode
    except ValueError:
        die("driver printed no JSON result")


def run_setup(args, env):
    """One --setup-only driver process; returns its (setup_s, registry_s).

    The start stamp is taken immediately before os.posix_spawn, so
    setup_s covers exec, loading and the driver's own set-up but hardly
    any of the Python parent's work."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only", "--t0-ns"]
    read_end, write_end = os.pipe()
    actions = [(os.POSIX_SPAWN_DUP2, write_end, 1)]
    pid = os.posix_spawn(DRIVER, cmd + [str(time.monotonic_ns())], env,
                         file_actions=actions)
    os.close(write_end)
    output = b""
    deadline = time.monotonic() + 60
    with selectors.DefaultSelector() as sel:
        sel.register(read_end, selectors.EVENT_READ)
        while time.monotonic() < deadline:
            if sel.select(deadline - time.monotonic()):
                chunk = os.read(read_end, 4096)
                if not chunk:
                    break
                output += chunk
    os.close(read_end)
    if time.monotonic() >= deadline:
        os.kill(pid, 9)
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        die("set-up process failed")
    r = json.loads(output.decode().strip().splitlines()[-1])
    return r["setup_s"], r["registry_s"]


def median(values):
    return statistics.median(values) if values else 0.0


def span_layer(event, parent_layer):
    """Layer metric a span's self time counts towards (None: glue)."""
    name = event["name"]
    if name == "ark.cache.system":
        # The library's span arg: 1 = served from the cache, 0 = built
        # (validated, then compiled in a nested ark.compile.lower).
        return ("engine.lookup_s" if event.get("args", {}).get("v") == 1
                else "validator.validate_s")
    if name in ROOT_SPANS:
        return None
    return SPAN_LAYER.get(name, parent_layer)


def analyse_pair(events):
    """Layer self times (s), validated and compiled system counts, and
    coverage of one traced cold+warm pair. Self time is a span's
    duration minus that of the spans nested in it; only the calling
    thread's spans are summed, so pool work is not counted twice."""
    roots = [e for e in events if e["name"] in ROOT_SPANS]
    if len(roots) != 2:
        raise ValueError("expected one cold and one warm root span")
    main = sorted((e for e in events if e["tid"] == roots[0]["tid"]),
                  key=lambda e: (e["ts"], -e["dur"]))
    layers = dict.fromkeys(TIMED_LAYERS, 0.0)
    stack = []  # [end_us, layer, self_us] of the open spans

    def close(frame):
        if frame[1] is not None:
            layers[frame[1]] += frame[2] * 1e-6

    for e in main:
        while stack and e["ts"] >= stack[-1][0] - 1e-3:
            close(stack.pop())
        parent_layer = stack[-1][1] if stack else None
        if stack:
            stack[-1][2] -= e["dur"]
        stack.append([e["ts"] + e["dur"], span_layer(e, parent_layer),
                      e["dur"]])
    while stack:
        close(stack.pop())

    wall = sum(r["dur"] for r in roots) * 1e-6
    built = sum(1 for e in events if e["name"] == "ark.cache.system"
                and e.get("args", {}).get("v") == 0)
    lowered = sum(1 for e in events if e["name"] == "ark.compile.lower")
    return layers, built, lowered, ratio(sum(layers.values()), wall)


def ratio(num, den):
    return num / den if den else 0.0


def trace_metrics(result, out_dir, registry_s):
    files = sorted(glob.glob(os.path.join(out_dir, "trace-*.json")),
                   key=lambda p: int(p.rsplit("-", 1)[1].split(".")[0]))
    counts = result["pair_counts"]
    if len(files) != len(counts) or not files:
        raise ValueError("one trace file per traced pair expected")
    per_pair = []
    merged = []
    for index, (path, c) in enumerate(zip(files, counts)):
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        if index < MERGED_TRACE_PAIRS:
            merged.extend(events)
        layers, built, lowered, coverage = analyse_pair(events)
        m = dict(layers)
        steps = c["steps_accepted"] + c["steps_rejected"]
        m.update({
            "validator.graphs": built,
            "compiler.systems": lowered,
            "compiler.tape_ops": c["tape_ops"],
            "engine.system_hit_rate": ratio(
                c["system_hits"], c["system_hits"] + c["system_misses"]),
            "sim.steps_accepted": c["steps_accepted"],
            "sim.steps_rejected": c["steps_rejected"],
            "sim.reject_share": ratio(c["steps_rejected"], steps),
            "sim.lane_occupancy": ratio(c["lane_occupancy_sum"],
                                        c["lane_instances"]),
            "sim.scalar_share": ratio(c["scalar_instances"],
                                      c["ode_instances"]),
            "sim.cpu_util": ratio(c["ensemble_cpu_s"],
                                  c["ensemble_wall_s"] * c["threads"]),
            "spice.structure_groups": c["structure_groups"],
            "spice.factor_misses": c["factor_misses"],
            "spice.factor_hit_rate": ratio(
                c["factor_hits"], c["factor_hits"] + c["factor_misses"]),
            "trace.coverage": coverage,
        })
        per_pair.append(m)
        os.remove(path)
    with open(os.path.join(out_dir, "trace.json"), "w") as f:
        json.dump({"displayTimeUnit": "ns", "traceEvents": merged}, f)

    metrics = {k: median([m[k] for m in per_pair]) for k in per_pair[0]}
    metrics["lang.registry_s"] = registry_s
    metrics["trace.overhead"] = ratio(median(result["traced_pair_s"]),
                                      median(result["untraced_pair_s"]))
    return metrics


def metric_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def main():
    args = parse_args()
    build()
    end_to_end_units, per_layer_units = metric_units()

    out_dir = os.path.join(ROOT, ".bench_build", "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    # A private, empty JIT disk cache per run: no run warms the next.
    jit_dir = os.path.join(out_dir, "jit-cache")
    env = dict(os.environ)
    env["ARK_JIT_CACHE_DIR"] = jit_dir

    stamp = {
        "commit": commit(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "load_average_at_start": os.getloadavg(),
        "overrides": {k: os.environ[k] for k in OVERRIDES if k in os.environ},
        "jit_cache_dir": os.path.relpath(jit_dir, ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    try:
        # Host speed drifts over seconds, so half the set-up processes run
        # before the workload process and half after it.
        before = SETUP_PROCESSES // 2
        samples = [run_setup(args, env) for _ in range(before)]
        extra = ["--seconds", repr(args.seconds), "--trace", str(args.trace),
                 "--out", out_dir]
        if args.inject_delay > 0:
            extra += ["--inject-delay", repr(args.inject_delay)]
        result, code = run_driver(args, env, extra)
        samples += [run_setup(args, env)
                    for _ in range(SETUP_PROCESSES - before)]
        setups, registries = zip(*samples)
        stamp.update({"build": result["build"], "threads": result["threads"],
                      "instances_per_pass": result["instances_per_pass"],
                      "input_digest": result["input_digest"],
                      "output_digest": result["output_digest"],
                      "summary": result["summary"],
                      "problems": result["problems"]})

        if args.trace:
            values = trace_metrics(result, out_dir, median(registries))
            units = per_layer_units
        else:
            values = {
                "setup_s": median(setups),
                "cold_instances_per_s": result["cold_instances_per_s"],
                "warm_instances_per_s": result["warm_instances_per_s"],
                "cpu_ms_per_instance": result["cpu_ms_per_instance"],
                "peak_rss_mb": result["peak_rss_mb"],
            }
            stamp.update({k: result[k] for k in ("cold_s", "warm_s",
                                                 "cold_cpu_s")})
            stamp["setup_s"] = setups
            stamp["workload_process_setup_s"] = result["setup_s"]
            units = end_to_end_units
    finally:
        shutil.rmtree(jit_dir, ignore_errors=True)

    stamp["metrics"] = values
    with open(os.path.join(out_dir, "stamp.json"), "w") as f:
        json.dump(stamp, f, indent=1)
    for problem in result["problems"]:
        print("perfbench: check failed: " + problem, file=sys.stderr)

    missing = sorted(set(units) - set(values))
    if missing:
        die("metrics not produced: " + ", ".join(missing))
    correct = code == 0 and result["failed"] == 0 and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
