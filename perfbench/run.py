#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
perfbench/ (and with it the library under src/) into .bench_build/; later
runs only check that the build is current. The benchmark prints a detail
line (host fingerprint, sample counts, accounting) and, last, one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json, with --trace 1 the
per-layer ones; a per-layer metric whose layer the workload does not
exercise reads 0 and is listed under "not_exercised" in the detail line.
Each run's two lines are also kept under .bench_build/perfbench-out/results/
for compare.py.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "osrs_perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "osrs_perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read BENCHMARK.json: {error}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"benchmark exited {proc.returncode} without a result")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])

    measured = result["metrics"]
    unknown = sorted(set(measured) - {m["name"] for m in wanted})
    if unknown:
        fail(f"metrics missing from BENCHMARK.json: {unknown}")
    metrics, not_exercised = {}, []
    for metric in wanted:
        name = metric["name"]
        if name in measured:
            if measured[name]["unit"] != metric["unit"]:
                fail(f"{name}: unit {measured[name]['unit']} != {metric['unit']}")
            metrics[name] = measured[name]
        elif args.trace:
            metrics[name] = {"value": 0, "unit": metric["unit"]}
            not_exercised.append(name)
        else:
            fail(f"end-to-end metric {name} was not measured")
    detail["not_exercised"] = not_exercised
    result["metrics"] = metrics

    detail_line = json.dumps(detail, separators=(",", ":"))
    result_line = json.dumps(result, separators=(",", ":"))
    results_dir = os.path.join(OUT_DIR, "results")
    os.makedirs(results_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w") as f:
        f.write(detail_line + "\n" + result_line + "\n")
    print(detail_line)
    print(result_line, flush=True)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
