#!/usr/bin/env python3
"""Builds nidc_bench from this checkout and runs one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--build-dir DIR]

The build goes to --build-dir (default .bench_build), relative to the
root of the checkout, and the run's files under it. nidc_bench's report
lines are passed through; the last line printed is one JSON object,
{"correct", "attempted", "failed", "metrics"}, carrying the end_to_end
metrics of BENCHMARK.json with --trace 0 and its per_layer metrics with
--trace 1. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "nidc_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-dir", default=".bench_build")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    wanted = contract["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(ROOT, args.build_dir)
    build(build_dir)

    report_path = os.path.join(build_dir, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    command = [os.path.join(build_dir, "nidc_bench"),
               f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds:g}", f"--json={report_path}",
               "--dir=" + os.path.join(build_dir, "run")]
    if args.trace:
        command.append("--trace=" + os.path.join(
            build_dir, f"trace-{args.workload}.json"))
    sys.stdout.flush()
    try:
        proc = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"nidc_bench did not finish within {RUN_TIMEOUT_S} s")
    # 0: every check passed; 1: a correctness check failed (reported as
    # correct=false below); anything else: the run itself broke.
    if proc.returncode not in (0, 1) or not os.path.exists(report_path):
        fail(f"nidc_bench exited with {proc.returncode}")
    with open(report_path) as f:
        report = json.load(f)["workloads"][args.workload]

    metrics = {}
    for spec in wanted:
        measured = report["metrics"].get(spec["name"])
        if measured is None:
            fail(f"nidc_bench reported no {spec['name']}")
        metrics[spec["name"]] = {"value": measured["value"],
                                 "unit": spec["unit"]}
    print(json.dumps({"correct": bool(report["correct"]) and
                      proc.returncode == 0,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
