#!/usr/bin/env python3
"""Runs workloads repeatedly and reports each metric's run-to-run spread.

    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--first-seed 1]
                                [--seconds S] [--trace 0|1]

Each run uses the next seed. For every metric it prints the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
in BENCHMARK.json: the figures the bounds are set from. It also prints the
share of failed operations, which must be the same in every run. The
summary is saved under .bench_results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              spec["per_layer" if args.trace else "end_to_end"]}

    summary = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.stderr.write(out.stderr)
                sys.exit("run failed: %s seed %d" % (workload, seed))
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print("%s: %d runs, %g s each, seeds %d..%d" % (
            workload, len(runs), args.seconds, args.first_seed,
            args.first_seed + args.runs - 1))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        print("  correct in every run: %s; failed share: %s" % (correct, shares))
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3, s = spread(values)
            rows[name] = {"values": values, "q1": q1, "median": med, "q3": q3,
                          "spread": s, "bound": bound}
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, s / bound)
                flag = "  OVER a third of the bound" if s > bound / 3 else ""
            print("  %-32s median %-14.6g q1 %-12.6g q3 %-12.6g spread %.4f%s%s" % (
                name, med, q1, q3, s,
                "" if bound is None else "  bound %.2f" % bound, flag))
        summary["workloads"][workload] = {"correct": correct,
                                          "failed_shares": shares,
                                          "metrics": rows}
    os.makedirs(os.path.join(ROOT, ".bench_results"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_results",
                        "steady-trace%d-%d.json" % (args.trace, int(time.time())))
    with open(path, "w") as f:
        json.dump(summary, f, indent=1)
    print("largest spread / bound (setup_s aside): %.3f; summary in %s" % (
        worst, os.path.relpath(path, ROOT)))


if __name__ == "__main__":
    main()
