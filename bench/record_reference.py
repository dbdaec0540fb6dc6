"""Record the reference outputs that the output gate compares against.

    python3 bench/record_reference.py

Run from the root of the commit whose outputs are the reference; it rewrites
bench/reference.json.  For `oracle` it stores, per call, the digest of its reports'
`to_dict(include_elapsed=False)`; these must not depend on the workload seed,
which only moves the sampled instances.  `cli` needs no record:
its expected outputs come from bench/reference.py.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from run import git_commit  # noqa: E402
from worker import import_program  # noqa: E402

SEEDS = {"oracle": (0, 1)}


def outcomes(workload, ds, seed, scale):
    with tempfile.TemporaryDirectory(dir=os.path.join(os.getcwd(), ".bench_out")) as workdir:
        ops = workloads.build(workload, ds, seed, scale, workdir)
        results = []
        for op in ops:
            _, _, dig, fail = op.run()
            results.append((dig, fail))
        return ops, results


def main() -> int:
    os.makedirs(".bench_out", exist_ok=True)
    ds = import_program(os.getcwd())
    out: dict = {"commit": git_commit(os.getcwd())}
    for workload, seeds in SEEDS.items():
        for scale in ("full", "toy"):
            entry = out.setdefault(workload, {}).setdefault(scale, {})
            for seed in seeds:
                ops, results = outcomes(workload, ds, seed, scale)
                digests = {op.label: dig for op, (dig, _) in zip(ops, results)}
                if entry.setdefault("ops", digests) != digests:
                    raise SystemExit(f"{workload}/{scale}: reports depend on the seed")
            print(f"recorded {workload}/{scale}", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
