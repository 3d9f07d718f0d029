"""Digest experiment rows, to show that a change moved none of them.

A refactor or a host-side optimisation must leave every simulated number
where it was.  This tool runs experiment ids through
:func:`repro.experiments.runner.run_experiments` and prints, per id,
``sha256[:16]`` of ``json.dumps([rows, notes], sort_keys=True,
default=str)`` — the recipe CHANGES.md has quoted since PR 15.  Run it on
the parent tree with ``--out``, then on the change with ``--compare``::

    PYTHONPATH=src python tools/rows_digest.py fig02 fig10 workload \\
        --scale 0.12 --seed 0 --out /tmp/parent.json
    PYTHONPATH=src python tools/rows_digest.py fig02 fig10 workload \\
        --scale 0.12 --seed 0 --compare /tmp/parent.json

``--compare`` exits 1 naming the ids whose digest differs (or that the
file does not hold); a file taken at another scale, seed or ``--strip``
list is refused (exit 2) rather than compared.  ``--strip COL,...`` drops
those columns from every row first, for a change that moves a known
column (e.g. ``cache_evictions``) and nothing else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys


def digest(result: dict, strip: frozenset = frozenset()) -> str:
    """``sha256[:16]`` of one ``ExperimentResult.to_dict()``'s rows and
    notes, without the ``strip`` columns."""
    rows = [
        {col: cell for col, cell in row.items() if col not in strip}
        for row in result["rows"]
    ]
    blob = json.dumps([rows, result["notes"]], sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    from repro.experiments.runner import RunSpec, run_experiments

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ids", nargs="+", help="experiment ids to run")
    parser.add_argument("--scale", type=float, default=0.12)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--strip", default="", metavar="COL,...",
        help="row columns left out of the digest",
    )
    parser.add_argument("--out", metavar="F.json", help="write the digests")
    parser.add_argument(
        "--compare", metavar="F.json",
        help="exit 1 unless every id's digest equals the one in this file",
    )
    args = parser.parse_args(argv)

    strip = sorted(filter(None, args.strip.split(",")))
    report = {"scale": args.scale, "seed": args.seed, "strip": strip}
    reference = None
    if args.compare:
        with open(args.compare) as fh:
            reference = json.load(fh)
        theirs = {key: reference.get(key) for key in report}
        if theirs != report:
            print(f"{args.compare} was taken with {theirs}, not {report}",
                  file=sys.stderr)
            return 2

    report["digests"] = {}
    differing = []
    spec = RunSpec(scale=args.scale, seed=args.seed)
    # One id at a time, so each digest prints as soon as it is known.
    for name in args.ids:
        (outcome,) = run_experiments([name], spec)
        mine = report["digests"][name] = digest(outcome.result, frozenset(strip))
        verdict = ""
        if reference is not None:
            theirs = reference["digests"].get(name)
            verdict = "  ==" if mine == theirs else f"  != {theirs}"
            if mine != theirs:
                differing.append(name)
        print(f"{name:20s} {mine}{verdict}  ({outcome.wall_s:.1f} s)", flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if differing:
        print(f"rows differ: {' '.join(differing)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
