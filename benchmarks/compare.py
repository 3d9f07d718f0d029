"""Diff pytest-benchmark JSON files and gate on regressions.

Usage::

    python benchmarks/compare.py BASELINE.json NEW.json [--threshold 0.15]
    python benchmarks/compare.py \
        --pair BENCH_kernel_baseline.json bench_kernel.json \
        --pair BENCH_shard_baseline.json bench_shard.json

Benchmarks are matched by name within each baseline/new pair.  For each
match the mean runtimes are compared; the exit status is 1 if any
benchmark present in both files of any pair slowed down by more than
``--threshold`` (default 15 %).  Speedups and new/removed benchmarks
are reported but never fail the gate.

Memory is gated the same way: when both sides of a match carry
``extra_info.peak_rss_mib`` (the shard benchmarks record it), growth
beyond ``--mem-threshold`` (default 30 %, RSS being noisier than time)
is a regression.  A benchmark missing the figure on either side is
skipped — memory gating never fails on hosts without ``/proc``.

So is the call count: ``extra_info.py_frames_per_packet_hop`` (Python
frames per packet-hop of a small LEOTP transfer, an exact count — see
``tools/frames_per_hop.py``) may grow by ``--frames-threshold`` (default
5 %), which catches a trampoline creeping back onto the per-packet path
even on a runner too noisy for the time gate.

``--pair BASE NEW`` is repeatable, so one invocation gates the whole
perf surface (kernel + workload + shard) — that is how the CI
benchmarks job calls it.  The two-positional form remains for single
comparisons.

This is the regression fence for the perf trajectories recorded in
``BENCH_kernel.json`` / ``BENCH_shard.json`` (see
benchmarks/test_bench_kernel.py, benchmarks/test_bench_shard.py) and
the CI benchmark smoke job.
"""

from __future__ import annotations

import argparse
import json
import sys


def load_benchmarks(path: str) -> dict[str, dict]:
    """Map benchmark name -> stats dict from a pytest-benchmark JSON."""
    with open(path) as fh:
        data = json.load(fh)
    out = {}
    for bench in data.get("benchmarks", []):
        out[bench["name"]] = bench
    return out


def _fmt_time(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.1f}us"


def _extra(bench: dict, key: str) -> float | None:
    value = bench.get("extra_info", {}).get(key)
    return float(value) if value is not None else None


def compare(
    baseline: dict[str, dict],
    new: dict[str, dict],
    threshold: float,
    mem_threshold: float = 0.30,
    frames_threshold: float = 0.05,
) -> tuple[str, list[str]]:
    """Render a comparison table; return (table, regression messages)."""
    # extra_info figures gated on growth: (key, label, unit, allowed growth).
    extra_gates = (
        ("peak_rss_mib", "peak RSS", "MiB", mem_threshold),
        ("py_frames_per_packet_hop", "frames/packet-hop", "", frames_threshold),
    )
    names = sorted(set(baseline) | set(new))
    width = max((len(n) for n in names), default=4)
    lines = [
        f"{'benchmark'.ljust(width)}  {'baseline':>10}  {'new':>10}  "
        f"{'speedup':>8}  verdict"
    ]
    regressions: list[str] = []
    for name in names:
        old_bench, new_bench = baseline.get(name), new.get(name)
        if old_bench is None:
            lines.append(f"{name.ljust(width)}  {'-':>10}  "
                         f"{_fmt_time(new_bench['stats']['mean']):>10}  "
                         f"{'-':>8}  NEW")
            continue
        if new_bench is None:
            lines.append(f"{name.ljust(width)}  "
                         f"{_fmt_time(old_bench['stats']['mean']):>10}  "
                         f"{'-':>10}  {'-':>8}  REMOVED")
            continue
        old_mean = old_bench["stats"]["mean"]
        new_mean = new_bench["stats"]["mean"]
        speedup = old_mean / new_mean if new_mean > 0 else float("inf")
        if new_mean > old_mean * (1.0 + threshold):
            verdict = f"REGRESSION (>{threshold:.0%} slower)"
            regressions.append(
                f"{name}: {_fmt_time(old_mean)} -> {_fmt_time(new_mean)} "
                f"({speedup:.2f}x)"
            )
        elif speedup >= 1.0 + threshold:
            verdict = "improved"
        else:
            verdict = "ok"
        lines.append(
            f"{name.ljust(width)}  {_fmt_time(old_mean):>10}  "
            f"{_fmt_time(new_mean):>10}  {speedup:>7.2f}x  {verdict}"
        )
        for key, label, unit, limit in extra_gates:
            old, cur = _extra(old_bench, key), _extra(new_bench, key)
            if old is None or cur is None or old <= 0:
                continue
            growth = cur / old - 1.0
            old_cell, new_cell = f"{old:.1f}{unit}", f"{cur:.1f}{unit}"
            if growth > limit:
                verdict = f"REGRESSION (>{limit:.0%} more)"
                regressions.append(
                    f"{name}: {label} {old_cell} -> {new_cell} (+{growth:.0%})"
                )
            else:
                verdict = "ok"
            lines.append(
                f"{''.ljust(width)}  {old_cell:>10}  {new_cell:>10}  "
                f"{'':>8}  {label} {verdict}"
            )
    return "\n".join(lines), regressions


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "baseline", nargs="?", help="baseline pytest-benchmark JSON"
    )
    parser.add_argument(
        "new", nargs="?", help="candidate pytest-benchmark JSON"
    )
    parser.add_argument(
        "--pair", nargs=2, action="append", default=[],
        metavar=("BASELINE", "NEW"),
        help="a baseline/candidate pair to gate; repeatable — all pairs "
             "are compared and any regression fails the run",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.15,
        help="allowed slowdown fraction before failing (default 0.15)",
    )
    parser.add_argument(
        "--mem-threshold", type=float, default=0.30,
        help="allowed peak-RSS growth fraction before failing, for "
             "benchmarks recording extra_info.peak_rss_mib (default 0.30)",
    )
    parser.add_argument(
        "--frames-threshold", type=float, default=0.05,
        help="allowed growth of extra_info.py_frames_per_packet_hop, an "
             "exact count, before failing (default 0.05)",
    )
    args = parser.parse_args(argv)

    pairs = [tuple(p) for p in args.pair]
    if args.baseline is not None:
        if args.new is None:
            parser.error("positional usage needs both BASELINE and NEW")
        pairs.append((args.baseline, args.new))
    if not pairs:
        parser.error("nothing to compare: give BASELINE NEW or --pair")

    all_regressions: list[str] = []
    for baseline_path, new_path in pairs:
        if len(pairs) > 1:
            print(f"== {baseline_path} vs {new_path} ==")
        table, regressions = compare(
            load_benchmarks(baseline_path), load_benchmarks(new_path),
            args.threshold, args.mem_threshold, args.frames_threshold,
        )
        print(table)
        if len(pairs) > 1:
            print()
        all_regressions.extend(regressions)
    if all_regressions:
        print(f"\n{len(all_regressions)} regression(s) beyond the "
              f"thresholds (time {args.threshold:.0%}, "
              f"rss {args.mem_threshold:.0%}, "
              f"frames {args.frames_threshold:.0%}):", file=sys.stderr)
        for msg in all_regressions:
            print(f"  {msg}", file=sys.stderr)
        return 1
    print("no regressions beyond the threshold"
          if len(pairs) > 1 else "\nno regressions beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
