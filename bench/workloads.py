"""The two workloads: seeded inputs and the timed calls into delshadow.

Each workload is a list of `Op`s run in order as one pass.  An op times only
its call into a public delshadow function and returns the call's output as a
digest, which the output gate compares with the expected digest.

* oracle: minimum-shadow searches at the largest desk scale.
* cli: a seeded stream of `delshadow` commands through `cli.main`, in process.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import time
from math import comb

import reference

# The one failure at the reference commit (where reference.json was recorded):
# the recursive closed form exceeds Python's recursion limit at level 1050 of
# n = 1100.  It is counted as failed but does not fail the gate.
KNOWN_DEFECTS = {"cli.minshadow.deep": "RecursionError"}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Op:
    """One timed call.  `call()` returns (result, items); `output(result)`
    turns the result into the bytes the gate digests.  `expect()`, where
    given, computes the expected bytes without the program; otherwise the
    expected digest is the one recorded in reference.json."""

    def __init__(self, label, call, output, expect=None):
        self.label = label
        self.call = call
        self.output = output
        self.expect = expect

    def run(self):
        """Returns (seconds, items, digest or None, failure reason or None)."""
        t0 = time.perf_counter()
        try:
            result, items = self.call()
        except Exception as exc:  # any raise is a failed operation
            return time.perf_counter() - t0, 0, None, type(exc).__name__
        elapsed = time.perf_counter() - t0
        return elapsed, items, digest(self.output(result)), None


# ---------------------------------------------------------------------------
# oracle


ORACLE_SAMPLES = {"full": 40_000, "toy": 200}
# Each entry is one timed call: (label, [(check, args, bounded?), ...]).  The
# short exhaustive checks share one call, so a pass makes three calls and
# their median is the single-process bounded conjecture1 search, not a
# boundary between two short pooled checks of about 50 ms each.
ORACLE_CALLS = {
    "full": [
        ("exhaustive", [("check_theorem1", (2, 3), False), ("check_theorem2", (4,), False),
                        ("check_conjecture1", (2, 3), False), ("check_a_t", (2, 3), False)]),
        ("conjecture1.3_2.bounded", [("check_conjecture1", (3, 2), True)]),
        ("theorem1.3_2.bounded", [("check_theorem1", (3, 2), True)]),
    ],
    "toy": [
        ("exhaustive", [("check_theorem1", (2, 1), False), ("check_theorem2", (3,), False),
                        ("check_a_t", (2, 2), False)]),
        ("conjecture1.2_2.bounded", [("check_conjecture1", (2, 2), True)]),
        ("theorem1.2_2.bounded", [("check_theorem1", (2, 2), True)]),
    ],
}


def oracle_ops(ds, seed: int, scale: str) -> list[Op]:
    verify = ds["verify"]
    budgets = {
        True: verify.SearchBudget(
            mode="bounded", max_size=6, samples=ORACLE_SAMPLES[scale], rng_seed=seed
        ),
        False: verify.SearchBudget(mode="exhaustive", rng_seed=seed),
    }

    def op(label, checks):
        def call():
            # Looked up per call, so a traced run sees the wrapped function.
            reps = [getattr(verify, fn_name)(*args, budgets[bounded])
                    for fn_name, args, bounded in checks]
            return reps, sum(rep.instances_checked for rep in reps)

        return Op(f"oracle.{label}", call, _reports_bytes)

    return [op(*spec) for spec in ORACLE_CALLS[scale]]


def _reports_bytes(reps) -> bytes:
    return b"\n".join(json.dumps(rep.to_dict(include_elapsed=False), sort_keys=True).encode()
                      for rep in reps)


# ---------------------------------------------------------------------------
# cli

# (n, k, families, low, high): family sizes spread evenly over
# [low, high] * |universe|.  The seed picks the members only, so the work in
# a pass, and which commands sit near p90, do not depend on it.
CLI_FAMILIES = {
    "full": [(3, 2, 5, 0.3, 0.6), (4, 2, 5, 0.3, 0.6), (3, 3, 5, 0.3, 0.6),
             (5, 1, 5, 0.3, 0.6), (5, 2, 2, 0.2, 0.3)],
    "toy": [(3, 2, 1, 0.3, 0.6), (3, 3, 1, 0.3, 0.6), (5, 1, 1, 0.3, 0.6)],
}
# (lengths, ceilings, cap): each initseg asks for half of min(|universe|, cap).
CLI_INITSEG = {"full": ((6, 7, 8, 9, 10), (1, 2, 3), 3000), "toy": ((4, 5), (1, 2), 60)}
# n -> levels of the minshadow queries (k = 1).  Levels stay below 360, so a
# traced run, which doubles the recursion depth, stays under the limit.
CLI_MINSHADOW = {"full": {300: (100, 120, 140, 160, 180, 200), 600: (240, 270, 300, 330)},
                 "toy": {300: (100, 200)}}


class _Cmd:
    """A `delshadow` command: argv, the file it writes (if any), and the
    expected exit code and output text computed by `reference`."""

    def __init__(self, label, argv, expect, out_path=None, exit_code=0):
        self.label, self.argv, self.expect = label, argv, expect
        self.out_path, self.exit_code = out_path, exit_code


def cli_commands(seed: int, scale: str, workdir: str) -> list[_Cmd]:
    rng = random.Random(f"cli:{seed}")
    cmds: list[_Cmd] = []

    def write(name, n, k, members):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as f:
            f.write(reference.family_text(n, k, members))
        return path

    fams = []
    for n, k, count, low, high in CLI_FAMILIES[scale]:
        universe = list(itertools.product(range(k + 1), repeat=n))
        for i in range(count):
            share = low + (high - low) * (i / (count - 1) if count > 1 else 0.5)
            m = int(share * len(universe))
            fams.append((n, k, rng.sample(universe, m)))
    if scale == "full":
        fams.append((4, 3, rng.sample(list(itertools.product(range(4), repeat=4)), 128)))
    for j, (n, k, members) in enumerate(fams):
        path = write(f"fam{j}.txt", n, k, members)
        tag = f"{n}_{k}"
        cmds.append(_Cmd(f"cli.canonicalize.{tag}", ["canonicalize", "--in", path],
                         lambda n=n, k=k, m=len(members): reference.family_text(
                             n, k, reference.initial_segment(n, k, m))))
        r = j % (k + 1)
        cmds.append(_Cmd(f"cli.shadow.{tag}", ["shadow", "--r", str(r), "--in", path],
                         lambda n=n, k=k, mem=members, r=r: reference.family_text(
                             n - 1, k, reference.shadow(mem, r))))
        r = (j + 1) % (k + 1)
        cmds.append(_Cmd(f"cli.bound.{tag}", ["bound", "--r", str(r), "--in", path],
                         lambda n=n, mem=members, r=r: reference.bound_text(n, mem, r)))

    ns, ks, cap = CLI_INITSEG[scale]
    for n in ns:
        for k in ks:
            universe = (k + 1) ** n
            m = min(universe, cap) // 2
            out = os.path.join(workdir, f"seg_{n}_{k}.txt")
            cmds.append(_Cmd(f"cli.initseg.{n}_{k}",
                             ["initseg", "--n", str(n), "--k", str(k), "--size", str(m), "--out", out],
                             lambda n=n, k=k, m=m: reference.family_text(
                                 n, k, reference.initial_segment(n, k, m)), out_path=out))
            cmds.append(_Cmd(f"cli.shadow.initseg.{n}_{k}", ["shadow", "--r", "0", "--in", out],
                             lambda n=n, k=k, m=m: reference.family_text(
                                 n - 1, k, reference.shadow(reference.initial_segment(n, k, m), 0))))

    queries = [(n, level, f"cli.minshadow.{n}")
               for n, levels in CLI_MINSHADOW[scale].items() for level in levels]
    queries.append((1100, 1050, "cli.minshadow.deep"))
    for n, level, label in queries:
        size = sum(comb(n, j) for j in range(level))
        if label.endswith("deep"):
            # Near the end of its level the colex cascade has about 1050
            # terms, so the recursive closed form nests about 1050 calls.
            size += comb(n, level) - 1 - rng.randint(0, 10**6)
        else:
            size += rng.randint(comb(n, level) // 3, 2 * comb(n, level) // 3)
        cmds.append(_Cmd(label, ["minshadow", "--n", str(n), "--k", "1", "--size", str(size)],
                         lambda n=n, size=size: f"{reference.min_shadow(n, 1, size)}\n"))

    # Malformed input: an entry above k must give exit code 2 and no output.
    bad = os.path.join(workdir, "malformed.txt")
    with open(bad, "w", encoding="utf-8") as f:
        f.write("3 1\n0 1 2\n")
    cmds.append(_Cmd("cli.malformed", ["shadow", "--r", "0", "--in", bad], lambda: "", exit_code=2))
    return cmds


def cli_ops(ds, seed: int, scale: str, workdir: str) -> list[Op]:
    cli = ds["cli"]
    ops = []
    for cmd in cli_commands(seed, scale, workdir):

        def call(cmd=cmd):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(cmd.argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            return (code, out.getvalue(), cmd.out_path), 1

        ops.append(Op(cmd.label, call, _cli_bytes, lambda cmd=cmd: _expected_bytes(cmd)))
    return ops


def _cli_bytes(result) -> bytes:
    code, stdout, out_path = result
    data = f"{code}\n{stdout}".encode()
    if out_path is not None:
        with open(out_path, "rb") as f:
            data += f.read()
    return data


def _expected_bytes(cmd: _Cmd) -> bytes:
    """What `_cli_bytes` must return: exit code, then stdout, or the output
    file when the command writes one (its stdout is then empty)."""
    return f"{cmd.exit_code}\n{cmd.expect()}".encode()


def build(workload: str, ds, seed: int, scale: str, workdir: str) -> list[Op]:
    if workload == "oracle":
        return oracle_ops(ds, seed, scale)
    return cli_ops(ds, seed, scale, workdir)
