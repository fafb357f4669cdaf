#!/usr/bin/env python3
"""Compares two end-to-end benchmark records, or shows the spread of one.

  python3 e2ebench/e2e_compare.py A.json B.json   # A = parent, B = change
  python3 e2ebench/e2e_compare.py A.json          # one record's spread

A record is the file e2ebench/rounds.py writes. Units, directions and bounds
come from BENCHMARK.json (--spec to use another file). For each workload and
metric, the row shows the median and quartiles of the record's runs, as
statistics.quantiles(values, n=4) gives them, and a verdict:

  regression    B's median is worse than A's by more than the bound
  within bound  B's median is not worse than A's by more than the bound
  unresolved    the spread (quartile distance / median) of A or B exceeds
                the bound, and not every run of B is better than every run
                of A
  -             the metric has no bound (a per-layer metric)

With one record the verdict column instead rates the spread against the
bound: "< bound/3", "< bound" or "> bound".

Exit status: 1 if any row is a regression or any run was incorrect, else 0.
"""

import argparse
import json
import math
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_spec(path):
    """Returns {metric: {"unit", "better", "bound"}} (bound None if absent)."""
    with open(path) as f:
        spec = json.load(f)
    metrics = {}
    for kind in ("end_to_end", "per_layer"):
        for m in spec.get(kind, []):
            metrics[m["name"]] = {"unit": m["unit"], "better": m["better"],
                                  "bound": m.get("bound")}
    return metrics


def load_record(path):
    """Returns ({workload: {metric: [values]}}, incorrect run count)."""
    with open(path) as f:
        record = json.load(f)
    by_workload = {}
    incorrect = 0
    for run in record["runs"]:
        result = run["result"]
        if result is None or not result["correct"]:
            incorrect += 1
            continue
        metrics = by_workload.setdefault(run["workload"], {})
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return by_workload, incorrect


def quartiles(values):
    """(q1, median, q3) of `values`; a single value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    if q2 == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(q2)


def worsening(a, b, better):
    """How much worse median b is than median a, as a share of a."""
    delta = (b - a) if better == "lower" else (a - b)
    if a == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(a)


def verdict(a_values, b_values, better, bound):
    if bound is None:
        return "-"
    if max(spread(a_values), spread(b_values)) > bound:
        if better == "lower":
            all_better = max(b_values) < min(a_values)
        else:
            all_better = min(b_values) > max(a_values)
        return "within bound" if all_better else "unresolved"
    a = quartiles(a_values)[1]
    b = quartiles(b_values)[1]
    return "regression" if worsening(a, b, better) > bound else "within bound"


def spread_rating(values, bound):
    if bound is None:
        return "-"
    s = spread(values)
    if s < bound / 3:
        return "< bound/3"
    return "< bound" if s <= bound else "> bound"


def fmt(v):
    return f"{v:.6g}"


def summary(values):
    q1, q2, q3 = quartiles(values)
    return f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}]"


def rows(spec, a, b):
    """Yields one table row (a list of cells) per workload x metric."""
    for workload in sorted(a):
        for name in sorted(a[workload]):
            meta = spec.get(name, {"unit": "?", "better": "lower",
                                   "bound": None})
            a_values = a[workload][name]
            bound = meta["bound"]
            bound_cell = "-" if bound is None else f"{bound:.0%}"
            if b is None:
                yield [workload, name, meta["unit"], str(len(a_values)),
                       summary(a_values), f"{spread(a_values):.1%}",
                       bound_cell, spread_rating(a_values, bound)]
                continue
            b_values = b.get(workload, {}).get(name)
            if not b_values:
                continue
            change = worsening(quartiles(a_values)[1], quartiles(b_values)[1],
                               meta["better"])
            yield [workload, name, meta["unit"], summary(a_values),
                   summary(b_values), f"{change:+.1%} worse", bound_cell,
                   verdict(a_values, b_values, meta["better"], bound)]


def print_table(header, table, out):
    widths = [max(len(r[i]) for r in [header] + table)
              for i in range(len(header))]
    for r in [header] + table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip(),
              file=out)


def main(argv, out=sys.stdout):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("records", nargs="+", metavar="RECORD.json")
    p.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = p.parse_args(argv)
    if len(args.records) > 2:
        p.error("at most two records")
    spec = load_spec(args.spec)
    a, bad = load_record(args.records[0])
    b = None
    if len(args.records) == 2:
        b, bad_b = load_record(args.records[1])
        bad += bad_b
        header = ["workload", "metric", "unit", "A median [q1, q3]",
                  "B median [q1, q3]", "B vs A", "bound", "verdict"]
    else:
        header = ["workload", "metric", "unit", "runs", "median [q1, q3]",
                  "spread", "bound", "spread vs bound"]
    table = list(rows(spec, a, b))
    print_table(header, table, out)
    if bad:
        print(f"{bad} incorrect or failed run(s) left out", file=out)
    regressions = sum(1 for r in table if r[-1] == "regression")
    return 1 if regressions or bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
