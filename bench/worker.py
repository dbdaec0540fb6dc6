"""One workload in a fresh interpreter: set-up, timed passes, output gate.

run.py starts this script; it prints one JSON object as its last stdout line.
Set-up is the import of delshadow, input generation and a warm-up pass of the
toy-scale workload, timed up to the first timed call.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

import tracing
import workloads

MODULES = ("seqcore", "orders", "shadow", "extremal", "famio", "verify", "cli")


def import_program(root: str) -> dict:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    ds = {name: importlib.import_module(f"delshadow.{name}") for name in MODULES}
    ds["__init__"] = sys.modules["delshadow"]
    where = os.path.dirname(os.path.abspath(ds["__init__"].__file__))
    if where != os.path.join(os.path.abspath(src), "delshadow"):
        raise RuntimeError(f"imported delshadow from {where}, not from {src}")
    return ds


def run_passes(ops, seconds: float, tracer=None, config=None) -> list[dict]:
    """Repeat the op list while another pass of typical length still fits in
    `seconds`; always at least one pass."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.begin_pass()
        times, outcomes, items = [], [], 0
        for op in ops:
            dt, n, dig, fail = op.run()
            times.append(dt)
            outcomes.append((dig, fail))
            items += n
        if tracer:
            tracer.end_pass(config)
        passes.append({"wall_s": sum(times), "items": items, "times": times,
                       "outcomes": outcomes})
        typical = statistics.median(p["wall_s"] for p in passes)
        if time.perf_counter() - start + typical > seconds:
            return passes


def gate(ops, passes, recorded: dict) -> dict:
    """Compare every op's output in every pass with its expected digest.

    An op fails if it raises or its output differs.  A failure that matches
    a known defect of the reference commit is counted but does not fail the gate;
    any other failure does.
    """
    expected = []
    errors = []
    for op in ops:
        if op.expect is not None:
            expected.append(workloads.digest(op.expect()))
        elif op.label in recorded.get("ops", {}):
            expected.append(recorded["ops"][op.label])
        else:
            expected.append(None)
            errors.append(f"{op.label}: no reference recorded")
    attempted = failed = 0
    known: set = set()
    for p in passes:
        for op, exp, (dig, fail) in zip(ops, expected, p["outcomes"]):
            attempted += 1
            if exp is None:
                continue  # already an error above
            reason = fail or (None if dig == exp else "output differs from reference")
            if reason is None:
                continue
            failed += 1
            if workloads.KNOWN_DEFECTS.get(op.label) == reason:
                known.add(f"{op.label}: {reason} (known defect)")
            else:
                errors.append(f"{op.label}: {reason}")
    return {"attempted": attempted, "failed": failed, "errors": sorted(set(errors)),
            "known": sorted(known)}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def traced_section(args, ds, ops, out_dir) -> tuple[list, dict]:
    """Untraced passes, then traced passes at the timed worker count and, for
    `oracle`, traced passes at one worker: pool workers are separate
    processes, so only the one-worker run sees spans inside the searches."""
    threads = os.environ.get("DELSHADOW_THREADS", "")
    configs = [("timed-workers", threads)]
    if args.workload == "oracle":
        configs.append(("one-worker", "1"))
    share = args.seconds / (len(configs) + 1)
    untraced = run_passes(ops, share)
    tracer = tracing.Tracer()
    tracer.install(ds)
    traced = {}
    for label, value in configs:
        os.environ["DELSHADOW_THREADS"] = value
        traced[label] = run_passes(ops, share, tracer, label)
    os.environ["DELSHADOW_THREADS"] = threads

    layers, sources = {}, {}
    for label, value in configs:
        per_pass = [tracer.pass_metrics(j) for j, p in enumerate(tracer.passes) if p[3] == label]
        for metric in tracing.LAYER_METRICS:
            pool_or_check = metric.startswith(("verify.pool.", "verify.check."))
            if len(configs) > 1 and pool_or_check != (label == "timed-workers"):
                continue
            values = [m[metric] for m in per_pass]
            # Counts repeat exactly pass to pass; times are medians.
            layers[metric] = statistics.median(values) if metric.endswith("_s") else values[0]
            sources[metric] = f"{label}, DELSHADOW_THREADS={value}"
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    traced_wall = statistics.median(p["wall_s"] for p in traced["timed-workers"])
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    path = os.path.join(out_dir, f"trace-{args.workload}-{args.scale}.json.gz")
    tracer.write(path, {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "configs": {label: {"DELSHADOW_THREADS": value} for label, value in configs},
    })
    info = {"layers": layers, "layer_sources": sources, "trace_file": path}
    return untraced + [p for v in traced.values() for p in v], info


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True, choices=("oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "toy"))
    parser.add_argument("--phase", default="run", choices=("setup", "run"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    out_dir = os.path.join(args.root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        t0 = time.perf_counter()
        ds = import_program(args.root)
        ops = workloads.build(args.workload, ds, args.seed, args.scale, workdir)
        warm_dir = os.path.join(workdir, "warm-up")
        os.mkdir(warm_dir)
        for op in workloads.build(args.workload, ds, args.seed, "toy", warm_dir):
            op.run()
        setup_s = time.perf_counter() - t0
        result = {"setup_s": setup_s}
        if args.phase == "run":
            if args.trace:
                passes, result["trace"] = traced_section(args, ds, ops, out_dir)
            else:
                passes = run_passes(ops, args.seconds)
            with open(os.path.join(os.path.dirname(__file__), "reference.json")) as f:
                recorded = json.load(f).get(args.workload, {}).get(args.scale, {})
            # Read before the gate: for `cli` it builds the expected outputs
            # in this process, and their memory is not the program's.
            result["peak_rss_mb"] = peak_rss_mb()
            result.update(gate(ops, passes, recorded))
            result["ops_per_pass"] = len(ops)
            result["passes"] = [{k: p[k] for k in ("wall_s", "items", "times")} for p in passes]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
