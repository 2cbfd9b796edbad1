#!/usr/bin/env python3
"""Runs one workload of the gqd benchmark.

    python3 gqdbench/run.py --workload check-burst --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. gqdbench is built from source first
(CMake, into .bench_build/), then run with the library's own tracing, event
log and fault injection switched off through the environment. gqdbench
prints every metric by name with its unit and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. The exit code
is gqdbench's: 0 only when every answer matched the committed expected
answers.

    python3 gqdbench/run.py --selftest

builds and runs the benchmark's own unit tests instead.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "gqdbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("check-burst", "eval-routed", "deep-check", "sparse-grid")


def build(target):
    """Configures and builds `target`; build output goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", target])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("gqdbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool", choices=("default", "heldout"),
                        default="default")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    target = "gqdbench_tests" if args.selftest else "gqdbench"
    if not build(target):
        return 1
    env = {k: v for k, v in os.environ.items()
           if k not in ("GQD_TRACE_OUT", "GQD_LOG", "GQD_FAILPOINTS")}
    if args.selftest:
        command = [os.path.join(BUILD_DIR, "gqdbench_tests")]
    else:
        command = [os.path.join(BUILD_DIR, "gqdbench"),
                   "--workload", args.workload,
                   "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace),
                   "--pool", args.pool,
                   "--data-dir", os.path.join(BENCH_DIR, "data"),
                   "--work-dir", os.path.join(BUILD_DIR, "work")]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
