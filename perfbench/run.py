#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <fleet_reduce|fleet_churn|chaos_sweep> \
        --seed <n> --seconds <s> --trace <0|1> [--small]

Run from the root of a checkout. The first run configures and builds the
mihn libraries and the perfbench driver (Release) into .bench_build/;
later runs only re-check the build. Build output goes to stderr; the
driver's report goes to stdout and ends with one JSON result line. The
exit code is the driver's: 0 when every output check passed.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# What the benchmark builds and reads besides its own directory.
REQUIRED = [
    os.path.join("src", "CMakeLists.txt"),
    os.path.join("tools", "mihn_chaos", "campaigns", "policy_grid.chaos"),
]
WORKLOADS = ["fleet_reduce", "fleet_churn", "chaos_sweep"]
# A run measures for --seconds and spends up to about as long again on
# set-up, reports and checks; the margin covers the serial reference runs.
RUN_MARGIN_S = 60
RUN_SECONDS_FACTOR = 5


def jobs():
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def run_checked(cmd, timeout):
    """Runs |cmd| with stdout sent to stderr; returns its exit code."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: timed out: {' '.join(cmd)}", file=sys.stderr)
        return 124


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        code = run_checked(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"], timeout=60)
        if code != 0:
            return code
    return run_checked(["cmake", "--build", BUILD_DIR, "-j", str(jobs()),
                        "--target", "perfbench"], timeout=600)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--small", action="store_true",
                        help="reduced inputs (the self-test's size)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a full checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    code = build()
    if code != 0:
        print(f"perfbench: build failed ({code})", file=sys.stderr)
        return code if code > 0 else 1

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.small:
        cmd.append("--small")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_MARGIN_S + RUN_SECONDS_FACTOR * args.seconds)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
