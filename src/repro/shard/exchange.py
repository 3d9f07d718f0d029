"""Deterministic cross-shard state exchange at epoch boundaries.

Shards are weakly coupled: the only state that crosses a shard boundary
is small and aggregate — shared-cache-pool occupancy, gateway backlog,
and the memory-budget ledger.  At each epoch boundary the engine gathers
one :class:`ShardReport` per shard, sorts them by shard index, and
computes an :class:`ExchangeSignal` from the sorted list with *integer
arithmetic only*.  That makes the signal a pure function of the epoch's
reports: it cannot depend on worker count, process scheduling, or float
summation order — the core of the ``--jobs``-independence guarantee.

The cache re-apportionment uses largest-remainder allocation
(:func:`apportion`), which conserves the global budget exactly:
``sum(allocations) == total`` every epoch, byte for byte.  The engine
asserts this (and the per-shard ``stored_before == stored_after +
evicted`` boundary identity) instead of hoping.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.apportion import apportion
from repro.shard.plan import MIN_CACHE_ALLOC_BYTES, ShardPlan


@dataclass(frozen=True)
class ShardReport:
    """One shard's small cross-boundary state after an epoch.

    Everything is an int or float scalar — reports cross process
    boundaries every epoch, so they must stay cheap to pickle.
    """

    shard: int
    epoch: int
    sim_time_s: float
    events_executed: int
    # Flow population.
    arrivals: int
    completed: int
    aborted: int
    live_flows: int
    # Cross-shard coupled state.
    backlog_bytes: int          # gateway backlog (responder send buffers)
    cache_stored_bytes: int     # shared-cache-pool occupancy
    cache_capacity_bytes: int   # allocation currently in force
    budget_total_bytes: int     # memory-budget ledger total
    budget_breaches: int
    # Boundary accounting from applying this epoch's allocation.
    boundary_stored_before: int
    boundary_evicted_bytes: int


@dataclass(frozen=True)
class ExchangeSignal:
    """What flows back into every shard for the next epoch."""

    epoch: int
    allocations: tuple[int, ...]     # per-shard cache capacity, conserved
    gateway_backlog_bytes: int       # aggregate, all shards
    ledger_total_bytes: int          # aggregate memory-budget bytes
    cache_stored_bytes: int          # aggregate pool occupancy


def compute_exchange(plan: ShardPlan, reports: list[ShardReport]) -> ExchangeSignal:
    """Fold one epoch's reports into the next epoch's exchange signal.

    ``reports`` must contain exactly one report per shard; they are
    sorted by shard index here so callers need not care about arrival
    order (futures complete in whatever order the OS schedules).
    """
    if len(reports) != plan.n_shards:
        raise ValueError(
            f"expected {plan.n_shards} reports, got {len(reports)}"
        )
    reports = sorted(reports, key=lambda r: r.shard)
    if [r.shard for r in reports] != list(range(plan.n_shards)):
        raise ValueError("reports do not cover every shard exactly once")

    # Demand-weighted cache re-apportionment: a shard's claim is what it
    # is holding plus what it is trying to push (backlog).  A floor of
    # MIN_CACHE_ALLOC_BYTES per shard is reserved up front so the
    # remainder apportionment cannot starve an idle shard.
    floor = min(MIN_CACHE_ALLOC_BYTES, plan.global_cache_bytes // plan.n_shards)
    distributable = plan.global_cache_bytes - floor * plan.n_shards
    weights = [r.cache_stored_bytes + r.backlog_bytes for r in reports]
    allocations = [
        floor + extra for extra in apportion(distributable, weights)
    ]
    total_alloc = sum(allocations)
    if total_alloc != plan.global_cache_bytes:
        raise AssertionError(
            f"cache budget not conserved: {total_alloc} allocated of "
            f"{plan.global_cache_bytes}"
        )
    return ExchangeSignal(
        epoch=reports[0].epoch,
        allocations=tuple(allocations),
        gateway_backlog_bytes=sum(r.backlog_bytes for r in reports),
        ledger_total_bytes=sum(r.budget_total_bytes for r in reports),
        cache_stored_bytes=sum(r.cache_stored_bytes for r in reports),
    )


def initial_allocations(plan: ShardPlan) -> tuple[int, ...]:
    """Epoch-0 allocation: the equal split every shard was built with."""
    return tuple(apportion(plan.global_cache_bytes, [1] * plan.n_shards))


def ledger_row(reports: list[ShardReport], signal: ExchangeSignal) -> dict:
    """One epoch's row of the engine's cross-shard ledger."""
    reports = sorted(reports, key=lambda r: r.shard)
    return {
        "epoch": signal.epoch,
        "allocations": list(signal.allocations),
        "stored_bytes": [r.cache_stored_bytes for r in reports],
        "boundary_stored_before": [r.boundary_stored_before for r in reports],
        "boundary_evicted_bytes": [r.boundary_evicted_bytes for r in reports],
        "backlog_bytes": signal.gateway_backlog_bytes,
        "ledger_total_bytes": signal.ledger_total_bytes,
        "budget_breaches": sum(r.budget_breaches for r in reports),
    }
