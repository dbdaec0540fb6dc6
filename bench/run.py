"""Benchmark of delshadow: one workload per invocation, every metric printed.

    python3 bench/run.py --workload oracle|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The workload runs in fresh interpreters
(bench/worker.py) with DELSHADOW_THREADS set to the number of usable cores.
Set-up runs SETUPS times and is reported as a median.  With --trace 0 the
end-to-end metrics are printed; with --trace 1 a traced run prints the
per-layer metrics and the tracing overhead.  The last stdout line is one JSON
object {correct, attempted, failed, metrics}; every run is also appended,
with its metadata, to .bench_out/results.jsonl for bench/compare.py.
Exits 1 if an output differs from its reference, 2 if delshadow is missing.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

SETUPS = 9
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END = {
    "wall_s": "s", "items_per_s": "1/s", "call_p50_ms": "ms", "call_p90_ms": "ms",
    "setup_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    **{m: ("s" if m.endswith("_s") else "count") for m in tracing.LAYER_METRICS},
    "trace.overhead_s": "s",
}


def nearest_rank(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, root, env, phase, deadline) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--scale", args.scale,
           "--phase", phase, "--trace", str(args.trace)]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and its pool processes
        proc.communicate()
        raise RuntimeError(f"{phase} worker passed the {DEADLINE_S} s deadline")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # pool processes left behind, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} worker exited {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "toy"),
                        help="toy: tiny inputs, for bench/selftest.py")
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "delshadow", "__init__.py")):
        print(f"error: no delshadow sources under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, DELSHADOW_THREADS=str(nproc), PYTHONHASHSEED="0")

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(run_worker(args, root, env, "setup", deadline)["setup_s"])
        res = run_worker(args, root, env, "run", deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])

    passes = res["passes"]
    times_ms = [t * 1000.0 for p in passes for t in p["times"]]
    walls = [p["wall_s"] for p in passes]
    p90 = nearest_rank(times_ms, 0.9)
    if args.trace:
        metrics = {name: res["trace"]["layers"][name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(p["items"] / p["wall_s"] for p in passes),
            "call_p50_ms": statistics.median(times_ms),
            "call_p90_ms": p90,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        units = END_TO_END
    error_rate = res["failed"] / res["attempted"]
    correct = not res["errors"]
    metadata = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "nproc": nproc,
        "python": platform.python_version(), "DELSHADOW_THREADS": env["DELSHADOW_THREADS"],
        "commit": git_commit(root), "ops_per_pass": res["ops_per_pass"],
        "passes": len(passes), "calls": len(times_ms),
        "calls_above_p90": sum(t > p90 for t in times_ms),
        "instances_per_pass": passes[0]["items"], "setup_samples": len(setups),
        "pass_wall_s": walls,
        "pass_call_s": [p["times"] for p in passes],
    }
    record = {"metadata": metadata, "correct": correct, "attempted": res["attempted"],
              "failed": res["failed"], "error_rate": error_rate,
              "failures": res["errors"] + res["known"],
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    if args.trace:
        record["layer_sources"] = res["trace"]["layer_sources"]
        record["trace_file"] = os.path.relpath(res["trace"]["trace_file"], root)

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed={args.seed} commit={metadata['commit'][:12]} "
          f"python={metadata['python']} nproc={nproc} "
          f"DELSHADOW_THREADS={env['DELSHADOW_THREADS']} scale={args.scale}")
    print(f"# {len(passes)} passes x {res['ops_per_pass']} ops, "
          f"{metadata['instances_per_pass']} items per pass, {len(setups)} set-ups")
    for name, value in metrics.items():
        note = "  (absent: no work in this layer here)" if args.trace and value == 0 else ""
        print(f"{name:42s} {value:>16.6f} {units[name]}{note}")
    print(f"{'error_rate':42s} {error_rate:>16.6f} failed/attempted "
          f"({res['failed']}/{res['attempted']})")
    for line in record["failures"]:
        print(f"# failure: {line}")
    if args.trace:
        print(f"# trace written to {record['trace_file']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
