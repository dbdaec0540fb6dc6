"""Compare two sets of benchmark results, for example parent and change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl [--bench BENCHMARK.json]

Each file holds records that bench/run.py appended to .bench_out/results.jsonl
(untraced runs only are compared).  For every workload and end-to-end metric
it prints each side's median and quartiles, the share of pairs each side won
and a verdict:

* improved: the change won at least 9/10 of the pairs, ties counting for
  neither, and the medians differ by more than the parent's quartile spread;
* unresolved: a side's quartile spread, as a share of its median, exceeds
  the metric's bound, unless every change run beats every parent run;
* worse: the change's median is worse than the parent's by more than the bound;
* unchanged: otherwise.

Runs pair by seed where both sides ran the same seeds, else in file order.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> dict:
    """Untraced runs grouped by workload, scale and run length; only runs
    with equal settings are compared."""
    runs = defaultdict(list)
    with open(path) as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                meta = rec["metadata"]
                if not meta["trace"]:
                    key = meta["workload"] + ("" if meta["scale"] == "full" else f"/{meta['scale']}")
                    runs[f"{key}@{meta['seconds']:g}s"].append(rec)
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(parent, change):
    by_seed = {r["metadata"]["seed"]: r for r in parent}
    common = [r for r in change if r["metadata"]["seed"] in by_seed]
    if common:
        return [(by_seed[r["metadata"]["seed"]], r) for r in common]
    return list(zip(parent, change))


def verdict(p_vals, c_vals, paired, bound, lower_better):
    sign = 1 if lower_better else -1
    p1, pm, p3 = quartiles(p_vals)
    c1, cm, c3 = quartiles(c_vals)
    better = sum(sign * (c - p) < 0 for p, c in paired)
    worse = sum(sign * (c - p) > 0 for p, c in paired)
    n = len(paired)
    if n and better >= 0.9 * n and sign * (cm - pm) < 0 and abs(cm - pm) > p3 - p1:
        label = "improved"
    elif max((p3 - p1) / abs(pm), (c3 - c1) / abs(cm)) > bound and not (
        max(sign * c for c in c_vals) < min(sign * p for p in p_vals)
    ):
        label = "unresolved"
    elif sign * (cm - pm) > bound * abs(pm):
        label = "worse"
    else:
        label = "unchanged"
    return (p1, pm, p3), (c1, cm, c3), (better / n if n else 0.0), (worse / n if n else 0.0), label


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--bench", default="BENCHMARK.json")
    args = parser.parse_args()
    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':14s} {'metric':12s} {'parent q1/median/q3':>32s} "
          f"{'change q1/median/q3':>32s} {'runs':>5s} {'won p/c':>9s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        paired = pairs(p_runs, c_runs)
        for m in metrics:
            name = m["name"]
            get = lambda r: r["metrics"][name]["value"]  # noqa: E731
            p, c, c_won, p_won, label = verdict(
                [get(r) for r in p_runs], [get(r) for r in c_runs],
                [(get(a), get(b)) for a, b in paired], m["bound"], m["better"] == "lower")
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{workload:14s} {name:12s} {fmt(p):>32s} {fmt(c):>32s} "
                  f"{len(p_runs):>2d}/{len(c_runs):<2d} {p_won:4.0%}/{c_won:<4.0%}  {label}")
        failed = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                  for runs in (p_runs, c_runs)]
        print(f"{workload:14s} {'error_rate':12s} {failed[0]:>32.6f} {failed[1]:>32.6f}"
              + ("  (more failures: a gain does not count)" if failed[1] > failed[0] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
