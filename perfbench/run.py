#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload read_large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench,
relative to the working directory); WAL, snapshot and span files go to a
per-run directory beneath it that is removed afterwards. Build output goes
to stderr, so the last line on stdout is the benchmark's result object.
Exits non-zero without a result when the build or the set-up fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("read_large", "mixed_small", "ingest_durable", "point_filter")


def build(build_dir):
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    # On SIGTERM, unwind: subprocess.run kills and reaps the child, and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the harness self-tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir = os.path.join(build_dir, "work-%d" % os.getpid())
    os.makedirs(work_dir, exist_ok=True)
    if args.selftest:
        try:
            return subprocess.run(
                [os.path.join(build_dir, "perfbench_selftest"),
                 work_dir]).returncode
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    try:
        return subprocess.run([
            os.path.join(build_dir, "perfbench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir,
        ]).returncode
    finally:
        # Keep the last span file of each workload beside the build.
        for name in os.listdir(work_dir):
            if name.startswith("spans-"):
                os.replace(os.path.join(work_dir, name),
                           os.path.join(build_dir, name))
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
