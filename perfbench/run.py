#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # the benchmark's own unit tests

The first call configures and builds perfbench/ (and the repository
libraries it links) into .perfbench/build; later calls rebuild only what
changed. Build output goes to stderr, so the last line of stdout is the
benchmark's result JSON. Run files live under .perfbench/work and are removed
when the run ends.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "perfbench")
STATE = os.path.join(ROOT, ".perfbench")
BUILD = os.path.join(STATE, "build")
WORK = os.path.join(STATE, "work")
BUILD_TIMEOUT_S = 840


def build(target):
    """Configures (once) and builds `target`; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", PKG, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            sys.exit(f"perfbench: build step failed: {e}")
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(BUILD, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()

    if args.selftest:
        sys.exit(subprocess.run([build("perfbench_tests")]).returncode)
    if not args.workload:
        ap.error("--workload is required")

    binary = build("perfbench_dagbench")
    # Runs are sequential; anything left here is from a run that was killed.
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace, "--workdir", WORK]
    try:
        done = subprocess.run(cmd, timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run timed out")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
