#!/usr/bin/env python3
"""Validate Ark's Prometheus text exposition.

Two modes, shared validation:

  tools/check_prometheus.py --probe PATH/TO/metrics_probe
      Runs the probe with --prometheus pointing at a temporary file
      and validates the exposition it writes after its workload
      (MetricsSnapshot::prometheus()). This is what the
      prometheus_exposition_check ctest runs.

  tools/check_prometheus.py --metrics-file F
      Validates an exposition previously saved to a file (CI artifact
      checking, offline debugging).

Validation covers the text-exposition grammar (version 0.0.4):
well-formed sample and # TYPE/# HELP lines, legal metric names, a TYPE
line preceding every family, histogram bucket series that are
cumulative with a +Inf bound matching _count, and the presence of the
ark_cache_ / ark_sim_ / ark_compile_ / ark_spice_ / ark_session_
families the probe's workload registers.

Exits 0 when every check passes, 1 with a diagnostic per failure
otherwise. Stdlib only.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)(?:\s+\d+)?$")
TYPE_RE = re.compile(
    r"^# TYPE (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
    r"(?P<type>counter|gauge|histogram|summary|untyped)$")
REQUIRED_FAMILY_PREFIXES = ("ark_cache_", "ark_sim_", "ark_compile_",
                            "ark_spice_", "ark_session_")


def base_family(name, declared_types):
    """Maps a sample name to its declared family, honouring the
    histogram suffixes."""
    if name in declared_types:
        return name
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix) and name[:-len(suffix)] in declared_types:
            return name[:-len(suffix)]
    return None


def parse_float(text):
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def check_prometheus(text, errors):
    """Validates one exposition payload, appending diagnostics to
    `errors`. Returns the {family: type} map for further checks."""
    declared = {}
    samples = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            if line.startswith("# TYPE "):
                match = TYPE_RE.match(line)
                if not match:
                    errors.append(f"line {lineno}: malformed TYPE: {line!r}")
                    continue
                name = match.group("name")
                if name in declared:
                    errors.append(f"line {lineno}: duplicate TYPE for {name}")
                declared[name] = match.group("type")
            elif not line.startswith("# HELP "):
                # Other comments are legal; nothing to check.
                pass
            continue
        match = SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        try:
            value = parse_float(match.group("value"))
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value: {line!r}")
            continue
        samples.append((match.group("name"), match.group("labels"), value))

    by_family = {}
    for name, labels, value in samples:
        family = base_family(name, declared)
        if family is None:
            errors.append(f"sample {name} has no preceding # TYPE line")
            continue
        by_family.setdefault(family, []).append((name, labels, value))

    for family, ftype in declared.items():
        rows = by_family.get(family, [])
        if not rows:
            errors.append(f"family {family} declared but has no samples")
            continue
        if ftype != "histogram":
            continue
        buckets = []
        count = None
        for name, labels, value in rows:
            if name == family + "_bucket":
                le = None
                for label in (labels or "").split(","):
                    key, _, raw = label.partition("=")
                    if key.strip() == "le":
                        le = parse_float(raw.strip().strip('"'))
                if le is None:
                    errors.append(f"{family}: bucket sample without le label")
                    continue
                buckets.append((le, value))
            elif name == family + "_count":
                count = value
        if not buckets:
            errors.append(f"{family}: histogram with no _bucket samples")
            continue
        bounds = [le for le, _ in buckets]
        if bounds != sorted(bounds):
            errors.append(f"{family}: bucket bounds are not increasing")
        if bounds and bounds[-1] != float("inf"):
            errors.append(f"{family}: missing +Inf bucket")
        values = [v for _, v in buckets]
        if any(b > a for a, b in zip(values[1:], values)):
            errors.append(f"{family}: bucket counts are not cumulative")
        if count is None:
            errors.append(f"{family}: missing _count sample")
        elif buckets and buckets[-1][1] != count:
            errors.append(
                f"{family}: +Inf bucket {buckets[-1][1]} != _count {count}")

    for prefix in REQUIRED_FAMILY_PREFIXES:
        if not any(family.startswith(prefix) for family in declared):
            errors.append(f"no {prefix}* family in the exposition")
    return declared


def run_probe_mode(probe, errors):
    """Runs the probe with --prometheus and validates its file."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "metrics.prom")
        run = subprocess.run(
            [probe, "--prometheus", path], stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=240)
        if run.returncode != 0:
            errors.append(f"probe exited {run.returncode}: "
                          f"{run.stderr.strip()}")
            return
        with open(path, "r", encoding="utf-8") as handle:
            check_prometheus(handle.read(), errors)


def main():
    parser = argparse.ArgumentParser(
        description="Validate Ark's Prometheus text exposition.")
    parser.add_argument("--probe",
                        help="metrics_probe binary to run and check")
    parser.add_argument("--metrics-file",
                        help="saved exposition to validate")
    args = parser.parse_args()
    if not args.probe and not args.metrics_file:
        parser.error("one of --probe / --metrics-file is required")

    errors = []
    if args.probe:
        run_probe_mode(args.probe, errors)
    if args.metrics_file:
        with open(args.metrics_file, "r", encoding="utf-8") as handle:
            check_prometheus(handle.read(), errors)

    for error in errors:
        print(f"check_prometheus: {error}", file=sys.stderr)
    if errors:
        return 1
    print("check_prometheus: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
