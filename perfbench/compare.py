#!/usr/bin/env python3
"""Compares two sets of benchmark result files: parent and change.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are each a directory of result files written by run.py
(.bench_results/ of two checkouts, say) or a comma-separated list of files.

For every workload and end-to-end metric it prints both sides' median and
quartiles, the share of paired runs the change won (runs are paired by
seed, else in order) and a verdict against the metric's bound in
BENCHMARK.json:

  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile distance
  worse       the change's median is worse than the parent's by more than
              the bound
  unresolved  the parent's run-to-run spread is wider than the bound, and
              not every change run beats every parent run
  unchanged   otherwise

For traced runs it prints each per-layer metric's medians and delta.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(where):
    files = []
    for part in where.split(","):
        if os.path.isdir(part):
            files += glob.glob(os.path.join(part, "*-trace[01]-seed*.json"))
        else:
            files.append(part)
    groups = {}
    for name in sorted(files):
        with open(name) as f:
            record = json.load(f)
        key = (record["workload"], record["trace"])
        groups.setdefault(key, []).append(record)
    return groups


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def pairs(parent, change):
    by_seed = {r["seed"]: r for r in parent}
    matched = [(by_seed[r["seed"]], r) for r in change if r["seed"] in by_seed]
    return matched if matched else list(zip(parent, change))


def verdict(parent_vals, change_vals, paired, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent_vals)
    _, cm, _ = quartiles(change_vals)
    wins = sum(1 for p, c in paired if sign * (c - p) > 0)
    win_share = wins / len(paired) if paired else 0.0
    parent_spread = (p3 - p1) / abs(pm) if pm else float("inf")
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    all_better = all(sign * (c - p) > 0 for c in change_vals for p in parent_vals)
    if win_share >= 0.9 and abs(cm - pm) > (p3 - p1):
        return "improved", win_share
    if worse_by > bound:
        return "worse", win_share
    if parent_spread > bound and not all_better:
        return "unresolved", win_share
    return "unchanged", win_share


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    for (workload, trace) in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[(workload, trace)], change[(workload, trace)]
        print("%s (%s): %d parent runs, %d change runs" % (
            workload, "traced" if trace else "end to end", len(p_runs), len(c_runs)))
        paired = pairs(p_runs, c_runs)
        metrics = spec["per_layer" if trace else "end_to_end"]
        for m in metrics:
            name = m["name"]
            pv = [r["result"]["metrics"][name]["value"] for r in p_runs]
            cv = [r["result"]["metrics"][name]["value"] for r in c_runs]
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            if trace:
                delta = cm - pm
                print("  %-32s parent %-12.6g change %-12.6g delta %+.6g %s (%+.1f%%)" % (
                    name, pm, cm, delta, m["unit"], 100 * delta / pm if pm else 0))
                continue
            pv_pairs = [(p["result"]["metrics"][name]["value"],
                         c["result"]["metrics"][name]["value"]) for p, c in paired]
            word, share = verdict(pv, cv, pv_pairs, m["better"], m["bound"])
            print("  %-22s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g] %s"
                  "  won %3.0f%%  %s" % (name, pm, p1, p3, cm, c1, c3, m["unit"],
                                          100 * share, word))
        if not trace:
            for label, runs in (("parent", p_runs), ("change", c_runs)):
                shares = sorted({r["result"]["failed"] / r["result"]["attempted"]
                                 for r in runs})
                print("  %s failed share %s, correct in every run: %s" % (
                    label, shares, all(r["result"]["correct"] for r in runs)))
    # The traced run's own overhead: its TCP read round trip against the
    # untraced read_only run's median read latency on the same side.
    for label, groups in (("parent", parent), ("change", change)):
        traced = groups.get(("read_only", 1))
        plain = groups.get(("read_only", 0))
        if traced and plain:
            t = statistics.median(r["result"]["metrics"]["trace.read_rtt_us"]["value"]
                                  for r in traced)
            u = statistics.median(r["result"]["metrics"]["read_p50_us"]["value"]
                                  for r in plain)
            print("%s: traced read round trip %.3f us vs untraced read_p50 %.3f us"
                  " (traced minus untraced %+.3f us)" % (label, t, u, t - u))


if __name__ == "__main__":
    main()
