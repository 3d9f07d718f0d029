"""Constellation-scale sharded workload (DESIGN.md §13).

Runs :func:`repro.shard.run_sharded` over a 16-shard plan — one shard
per ground-station pair, every fourth shard suffering a mid-chain
blackout — for an order of magnitude more concurrent flows than the
single-pool ``workload`` experiment: 10,400 arrivals at ``scale=1.0``.

The table has one row per shard plus a ``total`` row.  Rows are
bit-identical for every worker count: ``--shard-jobs N``
(``RunSpec.shard_jobs``) runs the shards on N processes — this one and
N - 1 forked workers — one shard per process at a time; wall-clock
figures never enter the rows.  Every shard keeps its own
cache slice (6 MiB) for the whole run and fails by name if it ends
outside it or its memory budget was ever breached.
"""

from __future__ import annotations

from repro.experiments.paper import Figure, Run
from repro.shard import ShardPlan, run_sharded

N_SHARDS = 16
ARRIVALS_PER_SHARD = 650  # x 16 shards = 10,400 flows at scale=1.0
MIN_ARRIVALS_PER_SHARD = 20


def shard_plan(scale: float = 1.0, seed: int = 0) -> ShardPlan:
    """The experiment's plan at a given scale (same plan for any jobs)."""
    arrivals = max(
        MIN_ARRIVALS_PER_SHARD, int(round(ARRIVALS_PER_SHARD * scale))
    )
    return ShardPlan(
        n_shards=N_SHARDS, seed=seed, arrivals_per_shard=arrivals
    )


def _caption(run: Run) -> str:
    plan = shard_plan(run.scale, run.seed)
    return (
        f"Sharded constellation workload: {plan.n_shards} ground-"
        f"station pairs x {plan.arrivals_per_shard} flows, "
        f"{plan.shard_cache_bytes / (1 << 20):g} MiB cache slice each"
    )


def _notes(rows: list, run: Run, outs: list) -> list[str]:
    plan = shard_plan(run.scale, run.seed)
    return [
        f"each shard simulated {plan.horizon_s:.1f}s in one run and ended "
        f"inside its {plan.shard_cache_bytes / (1 << 20):g} MiB cache "
        f"slice with 0 memory-budget breaches (checked per shard)",
        "rows are bit-identical for any --shard-jobs value; "
        "wall-clock never enters the table",
    ]


run = Figure(
    "workload_sharded",
    _caption,
    (),
    grid=[()],
    cell=lambda run: run_sharded(
        shard_plan(run.scale, run.seed),
        jobs=run.shard_jobs, profile_dir=run.profile_dir,
    ),
    row=lambda run, out: out["rows"],
    notes=_notes,
)
