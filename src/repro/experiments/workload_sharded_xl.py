"""Extreme-scale sharded workload: 10⁵ flows in bounded RSS (DESIGN.md §14).

Runs :func:`repro.shard.run_sharded` over a 100-shard plan — 1,000
arrivals per shard at ``scale=1.0``, i.e. 100,000 flows — exercising the
full scale machinery: shards run to completion one at a time per
process (resident state is one shard per process, whatever the shard
count),
per-shard result streaming (each flow's row spills to JSONL as it
closes and its record is dropped, so a shard's state is bounded by
*concurrent* flows, not total), and per-shard result commits.

The printed table aggregates the 100 shard rows into ten bands of ten
(summed counts, mean-of-shard latency columns — the same convention as
the engine's ``total`` row) so it stays readable; the untouched
per-shard rows live in the returned engine output and are bit-identical
for every worker count.  Options (``RunSpec`` fields, spelled as flags
by ``python -m repro.experiments``):

``shard_jobs`` / ``--shard-jobs``
    processes that run shards, this one included (default 1: inline;
    N forks N - 1 workers); rows are bit-identical for any value.
``sink_dir`` / ``--sink-dir``
    spill directory (default ``results/shard_xl``); the merged
    ``flows.jsonl`` lands there.
``checkpoint_dir`` / ``--checkpoint-dir``
    when set, every shard commits its row there as it finishes — and
    if the directory already holds a valid manifest for this plan,
    *resume* from it, so re-running the experiment after a kill keeps
    the shards that had finished and runs the rest from their seeds.
``profile_dir`` / ``--profile``
    each forked shard worker dumps its own cProfile under ``shards/``
    there for ``tools/profile_top.py`` to merge; the shards this process
    runs land in the experiment's own profile.
"""

from __future__ import annotations

import os

from repro.experiments.paper import Figure, Run
from repro.shard import (
    MERGED_SPILL_NAME,
    CheckpointError,
    ShardPlan,
    resume_point,
    run_sharded,
    total_row,
)

N_SHARDS = 100
ARRIVALS_PER_SHARD = 1_000  # x 100 shards = 100,000 flows at scale=1.0
MIN_ARRIVALS_PER_SHARD = 5
BAND = 10  # shards summarised per printed row

DEFAULT_SINK_DIR = os.path.join("results", "shard_xl")


def shard_plan(scale: float = 1.0, seed: int = 0) -> ShardPlan:
    """The experiment's plan at a given scale (same plan for any jobs)."""
    arrivals = max(
        MIN_ARRIVALS_PER_SHARD, int(round(ARRIVALS_PER_SHARD * scale))
    )
    return ShardPlan(
        n_shards=N_SHARDS, seed=seed, arrivals_per_shard=arrivals
    )


def _run(run: Run) -> dict:
    """The plan through the engine, resumed from ``run.checkpoint_dir``
    when it holds this plan's manifest."""
    plan = shard_plan(run.scale, run.seed)
    resume_from = None
    if run.checkpoint_dir is not None:
        try:
            resume_point(run.checkpoint_dir, plan)
            resume_from = run.checkpoint_dir
        except CheckpointError:
            pass  # no (valid) prior run: start fresh
    return run_sharded(
        plan,
        jobs=run.shard_jobs,
        sink_dir=run.sink_dir or DEFAULT_SINK_DIR,
        checkpoint_dir=run.checkpoint_dir,
        resume_from=resume_from,
        profile_dir=run.profile_dir,
    )


def _bands(run: Run, out: dict) -> list[dict]:
    """Ten-shard bands, then the total row."""
    shard_rows, total = out["rows"][:-1], out["rows"][-1]
    bands = []
    for lo in range(0, len(shard_rows), BAND):
        band = shard_rows[lo:lo + BAND]
        bands.append(total_row(f"{lo:03d}-{lo + len(band) - 1:03d}", band))
    return [
        dict(shards=row.pop("shard"), **row) for row in bands + [dict(total)]
    ]


def _caption(run: Run) -> str:
    plan = shard_plan(run.scale, run.seed)
    return (
        f"Extreme-scale sharded workload: {plan.n_shards} shards x "
        f"{plan.arrivals_per_shard} flows "
        f"({plan.n_shards * plan.arrivals_per_shard:,} total), "
        f"streamed results + per-shard result commits"
    )


def _notes(rows: list, run: Run, outs: list) -> list[str]:
    (out,) = outs
    total = rows[-1]
    plan = shard_plan(run.scale, run.seed)
    merged = os.path.join(run.sink_dir or DEFAULT_SINK_DIR, MERGED_SPILL_NAME)
    notes = [
        f"{total['completed']:,} of {total['arrivals']:,} flows completed; "
        f"{plan.horizon_s:.1f}s simulated per shard",
        f"per-flow rows streamed to {merged} "
        f"({out['sink']['merged_bytes'] / (1 << 20):.1f} MiB); resident "
        f"records bounded by concurrency, not flow count",
    ]
    if out["resumed_shards"]:
        notes.append(
            f"resumed from {run.checkpoint_dir}: {out['resumed_shards']} "
            f"finished shard(s) taken as committed"
        )
    elif run.checkpoint_dir is not None:
        notes.append(
            f"{plan.n_shards} shard results committed to {run.checkpoint_dir}"
        )
    notes.append(
        "per-shard rows (and the spilled flows.jsonl) are bit-identical "
        "for any --shard-jobs value"
    )
    return notes


run = Figure(
    "workload_sharded_xl",
    _caption,
    (),
    grid=[()],
    cell=_run,
    row=_bands,
    notes=_notes,
)
