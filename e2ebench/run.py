#!/usr/bin/env python3
"""Builds the end-to-end serving benchmark from source and runs it.

Run from the repository root:

  python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 e2ebench/run.py --selftest     # the benchmark's own tests

The build goes to .bench_build/ (configured once, then incremental). The
durable corpora of a run live under .bench_build/runs/ and are removed when
the run ends. The benchmark's output is passed through; its last line is the
JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    """Configures (once) and builds `target`; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("e2ebench: no repository sources next to e2ebench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target", target])
    for cmd in steps:
        # Build output goes to stderr so that stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(cmd))
    return os.path.join(BUILD, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return subprocess.run([build("e2e_bench_test")], cwd=BUILD).returncode
    if not args.workload:
        parser.error("--workload is required")

    binary = build("e2e_bench")
    run_dir = os.path.join(BUILD, "runs", "%s-%d" % (args.workload, os.getpid()))
    try:
        sys.stdout.flush()
        return subprocess.run(
            [
                binary,
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--dir", run_dir,
            ]
        ).returncode
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
