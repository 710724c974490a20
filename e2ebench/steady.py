#!/usr/bin/env python3
"""Steadiness check: runs each workload several times, each with another
seed, and prints every metric's median and quartile spread.

Run from the repository root:

  python3 e2ebench/steady.py [--runs 10] [--workloads a,b] [--trace 0|1]
                             [--seed-base 1] [--seconds S] [--out FILE]

The spread is (Q3 - Q1) / median over the runs, with the quartiles of
Python's statistics.quantiles(values, n=4). For end-to-end metrics it is
compared with the metric's bound in BENCHMARK.json: "ok" below a third of
the bound, "WIDE" above the bound. Metrics that a run prints by name but
keeps out of its JSON result, because they are not gated, are summarized
the same way and marked "(not gated)". Each run's client time per op (the
"phase" line) is averaged too: the traced average minus the untraced one is
the tracing overhead.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        sys.exit("run failed: %s seed %d (exit %d)" % (workload, seed, proc.returncode))
    result = json.loads(lines[-1])
    per_op = None
    for line in lines:
        m = re.match(r"phase .* ([0-9.]+) us of client time per op", line)
        if m:
            per_op = float(m.group(1))
        m = re.match(r"metric (\S+) +(\S+) (\S+)  \(not gated\)$", line)
        if m:
            result["metrics"][m.group(1) + " (not gated)"] = {
                "value": float(m.group(2)), "unit": m.group(3)}
    return result, per_op


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=0)
    parser.add_argument("--out", default="")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]

    report = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            result, per_op = run_once(workload, seed, seconds, args.trace)
            runs.append((result, per_op))
            print("%s seed %d: correct %s attempted %d failed %d" % (
                workload, seed, result["correct"], result["attempted"],
                result["failed"]), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r, _ in runs})
        print("\n%s: %d runs, failed shares %s, all correct %s, client us/op %.2f" % (
            workload, len(runs), shares, all(r["correct"] for r, _ in runs),
            statistics.mean(p for _, p in runs if p is not None)))
        print("  %-34s %14s %8s %8s %s" % ("metric", "median", "spread", "bound", ""))
        report[workload] = {}
        for name in sorted(runs[0][0]["metrics"]):
            values = [r["metrics"][name]["value"] for r, _ in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not args.trace:
                flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
            print("  %-34s %14.4f %8.4f %8s %s" % (
                name, median, spread, "" if bound is None else "%.2f" % bound, flag))
            report[workload][name] = {"values": values, "median": median, "spread": spread}
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
