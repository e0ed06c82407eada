#!/usr/bin/env python3
"""Build the perfbench binary from source and run one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig_sweep --seed 1 --seconds 25 --trace 0

The binary (perfbench/main.cpp) is configured and built with CMake into
.bench_build/perfbench the first time, then rebuilt incrementally. Its
stdout is passed through; the last line is the result object
{"correct", "attempted", "failed", "metrics"}, checked here against the
metric names BENCHMARK.json declares for the mode (end_to_end for
--trace 0, per_layer for --trace 1). Any failure to build, run or produce
that object exits non-zero without printing a result.
"""
import argparse
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_step(cmd, timeout):
    # Build output goes to stderr so stdout ends with the result line.
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_step(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    run_step(["cmake", "--build", BUILD_DIR, "-j", jobs,
              "--target", "perfbench"], BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fig_sweep", "batch_scale",
                                 "traffic_recorded"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    expected = expected_metrics(args.trace)
    binary = build()
    spans = os.path.join(BUILD_DIR, "spans-%s.json" % args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", spans]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        fail("perfbench exited with %d" % done.returncode)

    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        fail("perfbench printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    metrics = result["metrics"]
    if {k: v["unit"] for k, v in metrics.items()} != expected:
        fail("metrics differ from BENCHMARK.json: %s" %
             sorted(set(metrics) ^ set(expected)))
    if not all(math.isfinite(v["value"]) for v in metrics.values()):
        fail("non-finite metric value")
    if result["attempted"] < 1:
        fail("no runs attempted")

    print("\n".join(lines[:-1]))
    if args.trace:
        print("spans: " + os.path.relpath(spans, ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
