#!/usr/bin/env python3
"""Build and run the FEM-2 benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first call configures and builds the
benchmark program fem2_perfbench (perfbench/CMakeLists.txt, which compiles
the checkout's src/) into .bench_build/perfbench; later calls rebuild
incrementally.  The program runs one workload and its last stdout line, a
JSON object with the keys correct, attempted, failed and metrics, is passed
through as this script's last line.  Build output goes to stderr.
"""
import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD, "fem2_perfbench")
WORKLOADS = ("sim_pipeline", "sim_checked", "serve_analyze")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return "no fem2 sources next to perfbench/ (src/CMakeLists.txt missing)"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "fem2_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            return "build step failed: " + " ".join(step)
    return None


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    error = build()
    if error:
        return fail(error)
    os.makedirs(WORK, exist_ok=True)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK]
    start = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("fem2_perfbench did not finish within %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        return fail("fem2_perfbench exited with status %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        return fail("fem2_perfbench printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return fail("malformed result line")
    declared = expected_metrics(args.trace)
    if declared is not None and declared != set(result["metrics"]):
        return fail("metrics differ from BENCHMARK.json: %s"
                    % sorted(declared ^ set(result["metrics"])))
    for line in lines[:-1]:
        print(line)
    print("perfbench: %s seed %d trace %d ran %.1f s"
          % (args.workload, args.seed, args.trace, time.monotonic() - start),
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
