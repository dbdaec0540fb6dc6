"""Self-test of the benchmark at toy size.

    python3 bench/selftest.py

Run from the checkout root.  It checks that
* bench/reference.py agrees with direct enumeration on small cases;
* every workload, untraced and traced, finishes at toy scale, reports every
  metric that BENCHMARK.json names with its unit, and passes the output gate,
  with no failure other than a known defect;
* run.py exits non-zero, printing no result, where the sources are missing.
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402

FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def reference_by_enumeration() -> None:
    for n in range(1, 8):
        for r in range(n + 1):
            colex = sorted(itertools.combinations(range(1, n + 1), r),
                           key=lambda s: tuple(reversed(s)))
            for m in range(comb(n, r) + 1):
                direct = sum(1 in s for s in colex[:m])
                if reference.colex_ones(n, r, m) != direct:
                    return check(False, f"colex_ones({n}, {r}, {m}) = {direct} by enumeration")
    for n, k in ((1, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 1)):
        universe = sorted(itertools.product(range(k + 1), repeat=n),
                          key=lambda x: reference.leq_key(x, k))
        for m in range(len(universe) + 1):
            seg = reference.initial_segment(n, k, m)
            if seg != universe[:m]:
                return check(False, f"initial_segment({n}, {k}, {m}) is not a prefix of <=")
            expected = len(reference.shadow(seg, 0)) if m else 0
            if reference.min_shadow(n, k, m) != expected:
                return check(False, f"min_shadow({n}, {k}, {m}) != |delta initial segment|")
    check(True, "reference.py agrees with direct enumeration")


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def workloads_at_toy_scale(bench: dict) -> None:
    for workload in ("oracle", "cli"):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            what = f"{workload} --trace {trace}"
            proc = run(os.getcwd(), workload, trace)
            if proc.returncode != 0:
                check(False, f"{what} exited {proc.returncode}: {proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what} result keys")
            check(result["correct"] and result["attempted"] >= 1, f"{what} passes the output gate")
            wanted = {m["name"]: m["unit"] for m in bench[kind]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            check(got == wanted, f"{what} reports every {kind} metric with its unit")
            with open(os.path.join(".bench_out", "results.jsonl")) as f:
                record = json.loads(f.readlines()[-1])
            unknown = [x for x in record["failures"] if not x.endswith("(known defect)")]
            check(not unknown and record["failed"] <= result["attempted"],
                  f"{what} fails only on known defects {record['failures']}")


def refuses_without_sources() -> None:
    os.makedirs(".bench_out", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_out") as bare:
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "cli", 0)
        printed_result = any(line.startswith("{") for line in proc.stdout.splitlines())
        check(proc.returncode != 0 and not printed_result,
              "run.py exits non-zero without a result where src/ is missing")


def main() -> int:
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    reference_by_enumeration()
    workloads_at_toy_scale(bench)
    refuses_without_sources()
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
