#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]

Runs perfbench/run.py once per seed (seeds first-seed .. first-seed+runs-1)
and prints, for each end-to-end metric, the median of the runs and the
distance between the first and third quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json.  A spread above a third
of the bound is flagged, for setup_s as for every other metric.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    values = {m["name"]: [] for m in spec["end_to_end"]}
    failures = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print("seed %d: run failed" % seed)
            failures += 1
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            failures += 1
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))

    print("%-12s %12s %8s %8s" % ("metric", "median", "spread", "bound"))
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if spread > metric["bound"] / 3:
            flag = "  <-- above bound/3"
        print("%-12s %12.6g %8.4f %8.3f%s"
              % (metric["name"], statistics.median(vals), spread,
                 metric["bound"], flag))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
