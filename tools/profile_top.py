"""Merge ``--profile`` dumps and print the hottest functions.

``python -m repro.experiments --profile ...`` writes one cProfile dump
per experiment to ``results/profiles/<id>.pstats``.  This tool merges
any number of those dumps into one profile and prints the top-N entries,
so "where does the whole harness spend its time" is one command::

    PYTHONPATH=src python -m repro.experiments --profile fig02 fig10 workload
    python tools/profile_top.py results/profiles/*.pstats
    python tools/profile_top.py results/profiles -n 40 --sort tottime

Directories are expanded *recursively* to every ``.pstats`` file below
them, so sharded experiments — whose worker processes dump one profile
per shard task to ``results/profiles/shards/shard-NNN-pidNNN.pstats`` —
merge into the same report as the parent's per-experiment dump with a single
``results/profiles`` argument.  The profile-first rule for kernel work:
run this before optimising, and only touch what is actually at the top.
"""

from __future__ import annotations

import argparse
import os
import pstats
import sys


def collect_paths(args_paths: list[str]) -> list[str]:
    """Expand directories (recursively) to .pstats files; keep files as-is."""
    paths: list[str] = []
    for path in args_paths:
        if os.path.isdir(path):
            entries = sorted(
                os.path.join(root, name)
                for root, _dirs, names in os.walk(path)
                for name in names
                if name.endswith(".pstats")
            )
            if not entries:
                raise FileNotFoundError(f"no .pstats files under {path!r}")
            paths.extend(entries)
        else:
            paths.append(path)
    return paths


def merged_stats(paths: list[str]) -> pstats.Stats:
    stats = pstats.Stats(paths[0])
    for path in paths[1:]:
        stats.add(path)
    return stats


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="+",
        help=".pstats files and/or directories containing them",
    )
    parser.add_argument(
        "-n", "--top", type=int, default=25,
        help="number of functions to print (default 25)",
    )
    parser.add_argument(
        "--sort", default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="ranking key (default cumulative)",
    )
    args = parser.parse_args(argv)

    try:
        paths = collect_paths(args.paths)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    stats = merged_stats(paths)
    print(f"merged {len(paths)} profile(s):")
    for path in paths:
        print(f"  {path}")
    print()
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Piped into `head`; the output that mattered already went out.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
