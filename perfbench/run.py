#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <pase_ivf|filtered_rw> \
        --seed <n> --seconds <s> --trace <0|1> [--scale tiny]

The engine and the binary are compiled (Release) into .bench_build/ at the
checkout root; later runs rebuild only what changed. Scratch databases and
span logs also live under .bench_build/. The last line of standard output
is the binary's JSON result; build logs and progress go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ("pase_ivf", "filtered_rw")
RUN_TIMEOUT_S = 170


def build():
    """Configures and builds the binary; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK_DIR, "--scale", args.scale]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print("perfbench: binary exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: binary printed no result", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
