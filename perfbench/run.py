#!/usr/bin/env python3
"""Builds and runs the layered host-time benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The benchmark is built from source with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first
use and rebuilt incrementally afterwards; build output goes to stderr. The
last line of stdout is the benchmark's JSON result. A traced run also
writes its spans next to the binary. Exits nonzero, printing no result, if
the build or the run fails. --selftest builds and runs the benchmark's own
tests instead.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir, target):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return False
    if not isinstance(result["correct"], bool):
        return False
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return False
    if result["attempted"] < 1 or not isinstance(result["metrics"], dict):
        return False
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            return False
        if not isinstance(metric["value"], (int, float)):
            return False
    return True


def selftest(build_dir):
    build(build_dir, "perfbench_selftest")
    sys.exit(subprocess.run(
        [os.path.join(build_dir, "perfbench_selftest")]).returncode)


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if sys.argv[1:] == ["--selftest"]:
        selftest(build_dir)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    build(build_dir, "perfbench")

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{args.workload}-seed{args.seed}.json")]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = run.stdout.rstrip("\n").split("\n")
    valid = check_result(lines[-1])
    if run.returncode != 0 or not valid:
        # Never let a result line through from a failed run.
        sys.stdout.write("\n".join(lines[:-1] if valid else lines) + "\n")
        fail(f"benchmark exited with status {run.returncode}"
             if run.returncode else "benchmark printed no valid result line")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
