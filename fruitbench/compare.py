#!/usr/bin/env python3
"""Compare two sets of fruitbench results, metric by metric and workload by workload.

    python3 fruitbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines `run.py --results FILE` appends. For every
end-to-end metric of BENCHMARK.json and every workload, the table gives
each set's median and quartiles, each set's spread (interquartile range
over median), and the change of NEW's median against BASE's, signed so
that a positive change is worse. A pair is labelled

    unresolved  when either set's spread exceeds the metric's bound, unless
                every NEW run is better than every BASE run;
    regression  when NEW is worse than BASE by more than the bound;
    ok          otherwise.

Exits 1 if any pair is a regression or unresolved, else 0.
"""

import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load(path):
    by_pair = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            if run.get("trace", 0) != 0:
                continue
            for name, m in run["result"]["metrics"].items():
                by_pair.setdefault((name, run["workload"]), []).append(m["value"])
    return by_pair


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    with open(BENCHMARK) as f:
        metrics = json.load(f)["end_to_end"]
    base, new = load(sys.argv[1]), load(sys.argv[2])
    workloads = sorted({w for _, w in base} & {w for _, w in new})
    header = "%-20s %-18s %8s %-32s %-32s %8s %8s  %s" % (
        "workload", "metric", "bound", "base median [q1, q3] spread", "new median [q1, q3] spread",
        "change", "n", "label")
    print(header)
    bad = 0
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for w in workloads:
            a, b = base.get((name, w)), new.get((name, w))
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else float("inf")
            worse = change if lower else -change
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            if (spread(a) > bound or spread(b) > bound) and not all_better:
                label = "unresolved"
            elif worse > bound:
                label = "regression"
            else:
                label = "ok"
            bad += label != "ok"
            fmt = lambda q, v: "%.4g [%.4g, %.4g] %.1f%%" % (q[1], q[0], q[2], 100 * spread(v))
            print("%-20s %-18s %7.0f%% %-32s %-32s %+7.1f%% %4d/%-3d  %s" % (
                w, name, 100 * bound, fmt(qa, a), fmt(qb, b), 100 * worse, len(a), len(b), label))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
