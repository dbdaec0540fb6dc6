"""Command-line interface: one executable, one subcommand per operation.

Exit status: 0 on success, 1 when a proven-claim check is violated,
2 on usage or input errors.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys

from . import extremal, famio, orders, shadow, verify
from .seqcore import Family


@contextlib.contextmanager
def _opened(path: str, mode: str):
    """The file at `path`, or stdin / stdout for "-", closed on exit unless
    it is a standard stream."""
    if path == "-":
        yield sys.stdin if mode == "r" else sys.stdout
    else:
        with open(path, mode, encoding="utf-8") as stream:
            yield stream


def _read_family(path: str) -> Family:
    with _opened(path, "r") as stream:
        return famio.read_family(stream)


def _emit_family(a: Family, path: str, as_json: bool) -> None:
    # Rendered in full first, so a failure leaves no partial output.
    if as_json:
        members = [famio.format_sequence(x) for x in a]
        text = json.dumps({"n": a.n, "k": a.k, "members": members}) + "\n"
    else:
        buf = io.StringIO()
        famio.write_family(a, buf)
        text = buf.getvalue()
    with _opened(path, "w") as stream:
        stream.write(text)


def _parse_word(text: str) -> tuple[int, ...]:
    if "," in text or " " in text:
        parts = text.replace(",", " ").split()
    else:
        parts = list(text)
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"cannot parse component label {text!r}")


def _parse_radius(text: str, k: int) -> int:
    if text == "max":
        return k
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"radius must be an integer or 'max', got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `delshadow` parser, built on first use and shared by every later
    call in the process: building it costs more than most commands.
    `parse_args` returns a fresh namespace and leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="delshadow",
        description="Deletion shadows, extremal orders and brute-force checks "
        "on sequences over {0,...,k}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("shadow", help="deletion shadow of a family")
    p.add_argument("--r", required=True, help="deletion radius, or 'max' for full deletion")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default="-")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("initseg", help="initial segment of the <= order")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--out", dest="outfile", default="-")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("minshadow", help="closed-form minimum delta-shadow size")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("compress", help="apply one s,t-compression")
    p.add_argument("--s", required=True, help="preferred component label")
    p.add_argument("--t", required=True, help="other component label")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default="-")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("canonicalize", help="compress a family to the extremal segment")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", default="-")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("bound", help="rational shadow lower bound and actual size")
    p.add_argument("--r", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("family", help="emit a canonical family")
    p.add_argument("--kind", choices=("lleq", "brt", "at"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, help="radius (lleq) / zero budget (brt)")
    p.add_argument("--t", type=int, help="value ceiling (brt, at)")
    p.add_argument("--s", type=int, help="level budget (lleq)")
    p.add_argument("--out", dest="outfile", default="-")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="run named checking suites")
    p.add_argument(
        "--suite",
        default=",".join(verify.ALL_CHECKS),
        help="comma-separated check names (default: all of them)",
    )
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--mode", choices=("exhaustive", "bounded", "random"), default="bounded")
    p.add_argument("--max-size", type=int, default=6)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    return parser


def _cmd_shadow(args) -> int:
    fam = _read_family(args.infile)
    r = _parse_radius(args.r, fam.k)
    _emit_family(shadow.delta_r(fam, r), args.outfile, args.json)
    return 0


def _cmd_initseg(args) -> int:
    _emit_family(
        orders.initial_segment_leq(args.n, args.k, args.size), args.outfile, args.json
    )
    return 0


def _cmd_minshadow(args) -> int:
    value = extremal.min_delta_shadow_size(args.n, args.k, args.size)
    if args.json:
        print(json.dumps({"n": args.n, "k": args.k, "size": args.size, "min_shadow": value}))
    else:
        print(value)
    return 0


def _cmd_compress(args) -> int:
    fam = _read_family(args.infile)
    out = extremal.compress(fam, _parse_word(args.s), _parse_word(args.t))
    _emit_family(out, args.outfile, args.json)
    return 0


def _cmd_canonicalize(args) -> int:
    fam = _read_family(args.infile)
    _emit_family(extremal.canonicalize(fam), args.outfile, args.json)
    return 0


def _cmd_bound(args) -> int:
    fam = _read_family(args.infile)
    r = _parse_radius(args.r, fam.k)
    bound = extremal.prop10_lower_bound(fam, r)
    actual = len(shadow.delta_r(fam, r))
    if args.json:
        print(
            json.dumps(
                {
                    "r": r,
                    "bound": f"{bound.numerator}/{bound.denominator}",
                    "shadow_size": actual,
                }
            )
        )
    else:
        print(f"bound {bound.numerator}/{bound.denominator}")
        print(f"shadow {actual}")
    return 0


# family kind -> {flag: builder parameter} for the flags it needs besides --n, --k
_FAMILY_FLAGS = {
    "lleq": {"r": "r_del", "s": "s"},
    "brt": {"r": "r", "t": "t"},
    "at": {"t": "t"},
}


def _cmd_family(args) -> int:
    flags = _FAMILY_FLAGS[args.kind]
    if any(getattr(args, f) is None for f in flags):
        raise ValueError(f"{args.kind} needs " + " and ".join(f"--{f}" for f in flags))
    params = {p: getattr(args, f) for f, p in flags.items()}
    fam = extremal.canonical_family(args.kind, n=args.n, k=args.k, **params)
    _emit_family(fam, args.outfile, args.json)
    return 0


def _cmd_verify(args) -> int:
    names = [s for s in args.suite.split(",") if s]
    if not names:
        raise ValueError(f"--suite names no check; expected one of {sorted(verify.ALL_CHECKS)}")
    budget = verify.SearchBudget(
        mode=args.mode, max_size=args.max_size, samples=args.samples, rng_seed=args.seed
    )
    reports = verify.run_suite(names, budget, n=args.n, k=args.k)
    failed = any(not rep.ok and rep.check in verify.PROVEN_CHECKS for rep in reports)
    if args.json:
        print(json.dumps([rep.to_dict() for rep in reports]))
    else:
        for rep in reports:
            status = "PASS" if rep.ok else "FAIL"
            print(f"{rep.check}: {status} ({rep.instances_checked} instances, "
                  f"{rep.elapsed * 1000:.0f} ms)")
            for kind, findings in (("violation", rep.violations), ("note", rep.observations)):
                for finding in findings:
                    # The detail, then the witness family's members, if any, as [1 1; 0 1].
                    witness = f" [{'; '.join(finding['family'])}]" if "family" in finding else ""
                    print(f"  {kind}: {finding['detail']}{witness}")
    return 1 if failed else 0


_COMMANDS = {
    "shadow": _cmd_shadow,
    "initseg": _cmd_initseg,
    "minshadow": _cmd_minshadow,
    "compress": _cmd_compress,
    "canonicalize": _cmd_canonicalize,
    "bound": _cmd_bound,
    "family": _cmd_family,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory: the input is too large", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
