#!/usr/bin/env python3
"""The repository benchmark: times spectrebench workloads from outside the
program and checks their output bytes. See perfbench/NOTES.md.

    python3 perfbench/run.py --workload fig2 --seed 1 --seconds 20 --trace 0

Builds perfbench_driver from source (into $CARGO_TARGET_DIR, default
.bench_build), then starts one driver process per iteration until
--seconds have passed, so the host caches start empty each time. Prints a
JSON line with the host fingerprint, caveats and raw samples, and as the
last line {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Untraced runs take at least this many iterations, so a median is
# meaningful even when one iteration is long.
MIN_ITERATIONS = 3
# Set-up is short and noisy, so set-up-only processes add samples until
# there are at least this many.
SETUP_SAMPLES = 41
CHILD_TIMEOUT_S = 150

CAVEATS = [
    "Host time only: the model is checked against the Tables 3-8 calibration "
    "values in src/core/paper_expectations.* and nothing else; figure-level "
    "outputs are unvalidated, so no model-error figure is given.",
    "Host caches (TraceCache, MachinePool) start empty in every iteration: "
    "each iteration is a fresh process, as a CLI run is.",
    "uarch.trace_cache.* come from the multi-threaded traced run, where "
    "hit/miss order depends on scheduling: they are approximate, not exact.",
    "Per-layer metrics that read 0 belong to layers this workload does not "
    "exercise.",
]


class BenchError(Exception):
    pass


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir, jobs):
    for cmd in (["cmake", "-S", HERE, "-B", build_dir],
                ["cmake", "--build", build_dir, "-j", str(jobs),
                 "--target", "perfbench_driver"]):
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench_driver")


def run_child(driver, args):
    """Runs one driver process; returns its JSON report plus setup_s."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([driver] + args, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("driver timed out: " + " ".join(args))
    if proc.returncode != 0:
        raise BenchError("driver exited %d: %s\n%s"
                         % (proc.returncode, " ".join(args), proc.stderr[-2000:]))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    # Both clocks are CLOCK_MONOTONIC.
    report["setup_s"] = report["setup_end_s"] - spawned
    return report


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint(build_info, nproc, jobs):
    flags = build_info["flags"]
    suspect = [f for f in ("-O0", "--coverage", "-fsanitize") if f in flags]
    return {
        "cpu_model": cpu_model(),
        "nproc": nproc,
        "jobs": jobs,
        "compiler": build_info["compiler"],
        "build_type": build_info["type"],
        "flags": flags.strip(),
        "git_commit": git_commit(),
        "suspect_build": suspect,
    }


def median_metrics(reports, key):
    names = sorted({name for r in reports for name in r[key]})
    return {name: statistics.median(r[key].get(name, 0.0) for r in reports)
            for name in names}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    if args.seed < 0:
        fail("--seed must be >= 0")
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)

    nproc = len(os.sched_getaffinity(0))
    jobs = min(4, nproc)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    driver = build(build_dir, jobs)
    base = ["--workload=" + args.workload, "--seed=%d" % args.seed, "--jobs=%d" % jobs]

    untraced, traced = [], []
    try:
        deadline = time.monotonic() + args.seconds
        while True:
            # Iteration k runs input part k; only difftest has several parts
            # (see driver.cc), the other workloads ignore it.
            part = ["--part=%d" % len(untraced)]
            untraced.append(run_child(driver, base + part))
            if args.trace:
                traced.append(run_child(driver, base + part + ["--trace"]))
                done = time.monotonic() >= deadline
            else:
                done = time.monotonic() >= deadline and len(untraced) >= MIN_ITERATIONS
            if done:
                break
        setups = [r["setup_s"] for r in untraced + traced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_child(driver, base + ["--setup-only"])["setup_s"])
    except BenchError as e:
        fail(str(e))

    reports = untraced + traced
    attempted = sum(r["cells"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = [e for r in reports for e in r["errors"]]

    # Iterations on equal inputs, traced or not, must be the same
    # computation: one digest, and deterministic counts that repeat exactly
    # at any job count.
    by_input = {}
    for r in reports:
        by_input.setdefault(r["input"], []).append(r)
    wrong_output = False
    for name, group in sorted(by_input.items()):
        digests = {r["digest"] for r in group}
        if len(digests) != 1:
            wrong_output = True
            problems.append("%s: output digests differ: %s" % (name, sorted(digests)))
        for count in sorted({c for r in group for c in r["counts"]}):
            values = {r["counts"][count] for r in group if count in r["counts"]}
            if len(values) != 1:
                problems.append("%s: count %s not exact: %s" % (name, count, sorted(values)))
    want = expected["cli_digest"][args.workload]
    for r in reports:
        if r["default_input"] and r["cli_digest"] != want:
            wrong_output = True
            problems.append("output digest %s != expected %s (%s)"
                            % (r["cli_digest"], want, expected["source"][args.workload]))
            break
    unbalanced = sum(r["cells_unbalanced"] for r in traced)
    if unbalanced:
        problems.append("%d traced cells whose self times do not sum to the cell span"
                        % unbalanced)
    if wrong_output:
        failed = attempted  # a wrong output fails every cell

    host = fingerprint(reports[0]["build"], nproc, jobs)
    if host["suspect_build"]:
        print("perfbench: WARNING: timings from a %s build are not comparable"
              % ", ".join(host["suspect_build"]), file=sys.stderr)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        layers = median_metrics(traced, "layers")
        untraced_wall = statistics.median(r["wall_s"] for r in untraced)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
        metrics = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            # A mean, not a median: peak RSS takes a few discrete levels (how
            # many freed machines the allocator kept), and a median jumps
            # between them.
            "peak_rss_mb": statistics.mean(r["peak_rss_mb"] for r in untraced),
            "ok_frac": (attempted - failed) / attempted,
        }

    print(json.dumps({
        "host": host,
        "caveats": CAVEATS,
        "problems": problems,
        "samples": {
            "iterations_untraced": len(untraced),
            "iterations_traced": len(traced),
            "wall_s": [r["wall_s"] for r in untraced],
            "cpu_s": [r["cpu_s"] for r in untraced],
            "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
            "setup_s": setups,
            "traced_wall_s": [r["wall_s"] for r in traced],
        },
        "exact_counts": {name: group[0]["counts"] for name, group in by_input.items()},
    }))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


if __name__ == "__main__":
    main()
