#!/usr/bin/env python3
"""Compare two sets of benchmark result files. Reports only; gates nothing.

Usage:
    python3 perfbench/report.py SET_A_DIR [SET_B_DIR] [--benchmark FILE]

A result file is the standard output of one `perfbench/run.py` run: its
last line is the result JSON and an earlier line carries the provenance
block (workload and seed). For each workload and metric the report prints
each set's median and quartiles (statistics.quantiles, n=4), the spread
(interquartile distance / median) and, with two sets, how much worse set B's
median is than set A's — signed by the metric's "better" direction from
BENCHMARK.json — beside the metric's bound. Flags mark a spread at or
above a third of the bound ("wide") and a set-to-set change worse than the
bound ("OVER").
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_set(directory):
    """{workload: {metric: [values]}} plus failure counts."""
    values, failed = {}, {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        if not lines or not lines[-1].startswith("{"):
            print("skipping %s: no result line" % path, file=sys.stderr)
            continue
        workload = None
        for line in lines[:-1]:
            if line.startswith('{"provenance"'):
                workload = json.loads(line)["workload"]
        if workload is None:
            print("skipping %s: no provenance line" % path, file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            failed[workload] = failed.get(workload, 0) + 1
        per_metric = values.setdefault(workload, {})
        for metric, entry in result["metrics"].items():
            per_metric.setdefault(metric, []).append(entry["value"])
    return values, failed


def summary(samples):
    med = statistics.median(samples)
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("set_a")
    parser.add_argument("set_b", nargs="?")
    parser.add_argument("--benchmark",
                        default=os.path.join(HERE, "..", "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}

    set_a, failed_a = load_set(args.set_a)
    set_b, failed_b = load_set(args.set_b) if args.set_b else ({}, {})
    for workload in sorted(set(set_a) | set(set_b)):
        runs_a = len(next(iter(set_a.get(workload, {"": []}).values()), []))
        runs_b = len(next(iter(set_b.get(workload, {"": []}).values()), []))
        print("== %s  (set A: %d runs, %d incorrect; set B: %d runs, "
              "%d incorrect)" % (workload, runs_a, failed_a.get(workload, 0),
                                 runs_b, failed_b.get(workload, 0)))
        print("  %-30s %-34s %-34s %9s %6s" %
              ("metric", "A median [q1, q3] spread", "B median [q1, q3] spread",
               "B worse", "bound"))
        metrics = sorted(set(set_a.get(workload, {})) |
                         set(set_b.get(workload, {})))
        for metric in metrics:
            m = spec.get(metric, {})
            bound = m.get("bound")
            cells, medians = [], []
            for values in (set_a, set_b):
                samples = values.get(workload, {}).get(metric)
                if not samples:
                    cells.append("-")
                    medians.append(None)
                    continue
                med, q1, q3, spread = summary(samples)
                flag = ""
                if bound is not None and spread >= bound / 3:
                    flag = " wide"
                cells.append("%.4g [%.4g, %.4g] %.1f%%%s" %
                             (med, q1, q3, spread * 100, flag))
                medians.append(med)
            worse = ""
            if None not in medians and medians[0]:
                change = (medians[1] - medians[0]) / abs(medians[0])
                if m.get("better") == "higher":
                    change = -change
                worse = "%+.1f%%" % (change * 100)
                if bound is not None and change > bound:
                    worse += " OVER"
            print("  %-30s %-34s %-34s %9s %6s" %
                  (metric, cells[0], cells[1], worse,
                   "" if bound is None else "%.2f" % bound))


if __name__ == "__main__":
    main()
