"""Command line interface: validate / run / replay.

Exit code 0 means every verdict passed (run), the manifest is valid
(validate), or the replay reproduced every table bit-for-bit (replay).
"""

from __future__ import annotations

import argparse
import json
import sys

from .experiments import replay, run
from .manifests import ManifestError, RunManifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levylab",
        description="Monte Carlo experiments for Levy-driven SDE limits and "
                    "jump-contaminated filtering")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a manifest file")
    p_val.add_argument("manifest")

    p_run = sub.add_parser("run", help="run a manifest into a bundle directory")
    p_run.add_argument("manifest")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--workers", type=int, default=1)
    p_run.add_argument("--out", required=True)

    p_rep = sub.add_parser("replay", help="re-run a bundle and compare bitwise")
    p_rep.add_argument("bundle")
    p_rep.add_argument("--workers", type=int, default=1)

    args = parser.parse_args(argv)

    def invalid(errors):
        for e in errors:
            print(f"INVALID: {e}", file=sys.stderr)
        return 1

    if args.command == "validate":
        try:
            errors = RunManifest.load(args.manifest).validate()
        except ManifestError as exc:
            return invalid(exc.errors)
        if errors:
            return invalid(errors)
        print("OK")
        return 0

    if args.command == "run":
        try:
            summary = run(RunManifest.load(args.manifest), args.out, seed=args.seed,
                          workers=args.workers)
        except ManifestError as exc:
            return invalid(exc.errors)
        print(json.dumps(summary["verdicts"], indent=2, sort_keys=True))
        print("PASS" if summary["overall_pass"] else "FAIL")
        return 0 if summary["overall_pass"] else 1

    if args.command == "replay":
        try:
            result = replay(args.bundle, workers=args.workers)
        except ManifestError as exc:
            return invalid(exc.errors)
        for d in result["diffs"]:
            print(f"DIFF: {d}", file=sys.stderr)
        print("identical" if result["identical"] else "divergent")
        return 0 if result["identical"] else 1

    return 2


if __name__ == "__main__":
    raise SystemExit(main())
