#!/usr/bin/env python3
"""Run the verification suites and print one report per check.

Examples:
    python scripts/run_checks.py                       # every check, default budget
    python scripts/run_checks.py --checks theorem1 --n 3 --k 2 --mode bounded
    python scripts/run_checks.py --mode random --samples 50000 --seed 42 --json

Exit status 1 if any proven-claim check records a violation, 2 on an input
error such as an unknown check name or a non-integer DELSHADOW_THREADS.
"""
import argparse
import json
import sys

from delshadow import verify


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--checks",
        default=",".join(verify.ALL_CHECKS),
        help="comma-separated check names (default: all of them)",
    )
    parser.add_argument("--n", type=int, help="override n for parameterised checks")
    parser.add_argument("--k", type=int, help="override k for parameterised checks")
    parser.add_argument("--mode", choices=("exhaustive", "bounded", "random"), default="bounded")
    parser.add_argument("--max-size", type=int, default=6)
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true", help="machine-readable reports")
    args = parser.parse_args(argv)

    budget = verify.SearchBudget(
        mode=args.mode, max_size=args.max_size, samples=args.samples, rng_seed=args.seed
    )
    names = [s for s in args.checks.split(",") if s]
    try:
        reports = verify.run_suite(names, budget, n=args.n, k=args.k)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps([rep.to_dict() for rep in reports], indent=2))
    else:
        for rep in reports:
            status = "PASS" if rep.ok else "FAIL"
            print(
                f"{rep.check:16s} {status}  {rep.instances_checked:>10d} instances  "
                f"{rep.elapsed * 1000:8.1f} ms  params={rep.params}"
            )
            for v in rep.violations:
                print(f"    violation: {v}")
            for o in rep.observations:
                print(f"    note: {o.get('detail', o)}")

    failed = any(
        not rep.ok and rep.check in verify.PROVEN_CHECKS for rep in reports
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
