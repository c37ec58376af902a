#!/usr/bin/env python3
"""Compares two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py <base results dir> <new results dir>

Each directory holds the files run.py keeps under
.bench_build/perfbench-out/results/ (copy them away between commits). Only
end-to-end runs (--trace 0) are compared. Runs recorded on different hosts
(a different fingerprint: nproc, CPU, build type, compiler, SIMD backend or
feature flags) are refused. For every workload and end-to-end metric the
report gives both medians, the base runs' quartile spread as a share of
their median, and a verdict against the metric's bound in BENCHMARK.json:
"worse" when the new median is worse by more than the bound, "unresolved"
when the base spread alone exceeds the bound, otherwise "within bound".
Exits 1 when any metric is worse, 2 when the runs cannot be compared.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    runs = {}
    hosts = set()
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as f:
            detail, result = (json.loads(line) for line in f.read().splitlines()[-2:])
        hosts.add(json.dumps(detail["host"], sort_keys=True))
        runs.setdefault(detail["workload"], []).append(result)
    return runs, hosts


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    base, base_hosts = load(sys.argv[1])
    new, new_hosts = load(sys.argv[2])
    if not base or not new:
        print("compare: no end-to-end results in one of the directories",
              file=sys.stderr)
        return 2
    if len(base_hosts | new_hosts) != 1:
        print("compare: refusing to compare runs from different hosts:",
              file=sys.stderr)
        for host in sorted(base_hosts | new_hosts):
            print("  " + host, file=sys.stderr)
        return 2

    worse = False
    print(f"{'workload':14} {'metric':16} {'base':>12} {'new':>12} "
          f"{'change':>8} {'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(new)):
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in base[workload]]
            b = [r["metrics"][name]["value"] for r in new[workload]]
            base_median, new_median = statistics.median(a), statistics.median(b)
            spread = 0.0
            if len(a) >= 2:
                q = statistics.quantiles(a, n=4)
                spread = (q[2] - q[0]) / base_median
            change = new_median / base_median - 1.0
            loss = change if metric["better"] == "lower" else -change
            if loss > metric["bound"]:
                verdict = "worse"
                worse = True
            elif spread > metric["bound"]:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print(f"{workload:14} {name:16} {base_median:12.5g} {new_median:12.5g} "
                  f"{change:+8.3f} {spread:7.3f} {metric['bound']:6.2f}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
