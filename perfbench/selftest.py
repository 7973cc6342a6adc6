#!/usr/bin/env python3
"""Reduced-size self-test of the repository benchmark.

    python3 perfbench/selftest.py

Runs every workload briefly (--small, 1 s) untraced and traced, through
run.py exactly as the benchmark is run, and asserts that:
  * the run exits 0 and its output checks pass (correct, failed == 0);
  * the result line carries exactly the metrics BENCHMARK.json lists for
    that mode, each with its unit, and every end-to-end value is > 0;
  * the human-readable lines name the workload's own metrics with units
    (tick_ms_p50 ... for fleet workloads, trials_per_s ... for chaos_sweep)
    and the environment (nproc, hardware_concurrency, pool widths);
  * a bad argument exits non-zero without printing a result line.
Exits 0 when every assertion holds.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = [sys.executable, os.path.join(BENCH_DIR, "run.py")]

WORKLOAD_LINES = {
    "fleet": [("tick_ms_p50", "ms"), ("tick_ms_p95", "ms"), ("ns_per_host_tick", "ns"),
              ("report_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("failed_ratio", "ratio")],
    "chaos": [("trials_per_s", "1/s"), ("trial_ms_p50", "ms"), ("trial_ms_p90", "ms"),
              ("report_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("failed_ratio", "ratio")],
}
ENV_KEYS = {
    "fleet": ["nproc=", "hardware_concurrency=", "build_type=", "fleet.worker_parallelism="],
    "chaos": ["nproc=", "hardware_concurrency=", "build_type=", "TrialExecutor.workers="],
}


def fail(message):
    print(f"selftest: FAIL: {message}")
    return 1


def check_run(spec, workload, trace):
    cmd = RUN + ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--small"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    label = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return fail(f"{label} exited {proc.returncode}\n{proc.stdout}\n{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        return fail(f"{label}: output checks failed: {lines[-1]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if list(result["metrics"]) != names:
        return fail(f"{label}: metrics {list(result['metrics'])} != {names}")
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        if got["unit"] != metric["unit"]:
            return fail(f"{label}: {metric['name']} unit {got['unit']} != {metric['unit']}")
        if not trace and not got["value"] > 0:
            return fail(f"{label}: {metric['name']} = {got['value']} is not > 0")
    kind = "chaos" if workload == "chaos_sweep" else "fleet"
    text = "\n".join(lines[:-1])
    for key in ENV_KEYS[kind]:
        if key not in text:
            return fail(f"{label}: environment lacks {key}")
    if not trace:
        for name, unit in WORKLOAD_LINES[kind]:
            pattern = rf"^{re.escape(name)} = [0-9.]+ {re.escape(unit)}\b"
            if not re.search(pattern, text, re.MULTILINE):
                return fail(f"{label}: no '{name} = <value> {unit}' line")
    print(f"selftest: ok {label}")
    return 0


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            failures += check_run(spec, workload, trace)
    bad = subprocess.run(RUN + ["--workload", "fleet_reduce", "--seed", "1", "--seconds",
                                "1", "--trace", "2"],
                         cwd=ROOT, capture_output=True, text=True, timeout=60)
    if bad.returncode == 0 or '"metrics"' in bad.stdout:
        failures += fail("--trace 2 was accepted")
    print("selftest: PASS" if failures == 0 else f"selftest: {failures} failure(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
