"""Sharded engine: jobs-independence and exchange conservation.

The headline guarantee of :mod:`repro.shard` is that ``--jobs`` is an
execution knob, not a modelling knob: serial and parallel runs must be
*bit-identical*, and the cross-shard exchange must conserve the global
cache budget byte-for-byte at every epoch boundary.  These tests pin
both.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace

import pytest

from repro.content import CachePolicy
from repro.shard import (
    MIN_CACHE_ALLOC_BYTES,
    ShardPlan,
    apportion,
    plan_fingerprint,
    run_sharded,
)
from repro.shard.worker import _ShardState

#: Small-but-alive plan: four shards (one faulted), six exchange epochs.
SMALL_PLAN = ShardPlan(n_shards=4, arrivals_per_shard=30, drain_s=2.5)


def _payload(result: dict) -> str:
    """The deterministic part of a run, in canonical form."""
    return json.dumps(
        {"rows": result["rows"], "ledger": result["ledger"]}, sort_keys=True
    )


# ----------------------------------------------------------------------
# apportion: the integer heart of the exchange
# ----------------------------------------------------------------------


def test_apportion_conserves_exactly():
    total = 96 << 20
    weights = [0, 17, 313, 5, 5, 1_000_000, 3]
    shares = apportion(total, weights)
    assert sum(shares) == total
    assert all(s >= 0 for s in shares)


def test_apportion_equal_split_on_zero_weights():
    assert apportion(10, [0, 0, 0]) == [4, 3, 3]  # remainder to low indices


def test_apportion_ties_break_by_index():
    # Equal weights, indivisible remainder: earlier shards get the units.
    assert apportion(7, [1, 1, 1]) == [3, 2, 2]


def test_apportion_edge_cases():
    assert apportion(0, [1, 2]) == [0, 0]
    assert apportion(-5, [1, 2]) == [0, 0]
    assert apportion(100, []) == []
    with pytest.raises(ValueError):
        apportion(10, [1, -1])


# ----------------------------------------------------------------------
# jobs-independence: the tentpole guarantee
# ----------------------------------------------------------------------


def test_sharded_run_bit_identical_across_jobs():
    serial = run_sharded(SMALL_PLAN, jobs=1)
    two = run_sharded(SMALL_PLAN, jobs=2)
    four = run_sharded(SMALL_PLAN, jobs=4)
    assert _payload(serial) == _payload(two) == _payload(four)
    # Sanity: the runs actually did work and finished every flow.
    total = serial["rows"][-1]
    assert total["shard"] == "total"
    assert total["arrivals"] == 4 * 30
    assert total["completed"] + total["aborted"] == total["arrivals"]
    assert serial["events_executed"] > 10_000


def test_sharded_run_repeatable_and_seed_sensitive():
    again = run_sharded(SMALL_PLAN, jobs=1)
    other_seed = run_sharded(
        ShardPlan(n_shards=4, arrivals_per_shard=30, drain_s=2.5, seed=1),
        jobs=1,
    )
    assert _payload(run_sharded(SMALL_PLAN, jobs=1)) == _payload(again)
    assert _payload(again) != _payload(other_seed)


def test_jobs_clamped_to_shard_count():
    result = run_sharded(SMALL_PLAN, jobs=64)
    assert result["jobs"] == SMALL_PLAN.n_shards
    assert _payload(result) == _payload(run_sharded(SMALL_PLAN, jobs=1))


# ----------------------------------------------------------------------
# exchange ledger: conservation at every epoch boundary
# ----------------------------------------------------------------------


def test_ledger_conserves_cache_budget_every_epoch():
    result = run_sharded(SMALL_PLAN, jobs=1)
    ledger = result["ledger"]
    assert len(ledger) == SMALL_PLAN.n_epochs
    for row in ledger:
        assert sum(row["allocations"]) == SMALL_PLAN.global_cache_bytes
        assert all(a >= MIN_CACHE_ALLOC_BYTES for a in row["allocations"])
        assert row["budget_breaches"] == 0


def test_ledger_boundary_identity_links_epochs():
    """stored-before at epoch e's boundary == stored at epoch e-1's end."""
    result = run_sharded(SMALL_PLAN, jobs=1)
    ledger = result["ledger"]
    for prev, cur in zip(ledger, ledger[1:]):
        assert cur["boundary_stored_before"] == prev["stored_bytes"]
        for before, evicted in zip(
            cur["boundary_stored_before"], cur["boundary_evicted_bytes"]
        ):
            assert 0 <= evicted <= before


def _mid_workload_state(plan: ShardPlan) -> _ShardState:
    """Shard 0 stepped until its cache pool holds forwarded data.

    Cached blocks are per-flow and dropped at retirement, so the probe
    stops while flows are still live.
    """
    state = _ShardState(plan, index=0)
    state.apply_allocation(plan.shard_cache_bytes)
    t = 0.0
    while state.pool.cache_pool.stored_bytes == 0 and t < 2.0:
        t += 0.05
        state.sim.run(until=t)
    assert state.pool.cache_pool.stored_bytes > 0  # forwarded data was cached
    return state


def test_boundary_shrink_evicts_and_conserves():
    """Forcing a shard far below its occupancy must evict, not breach."""
    state = _mid_workload_state(SMALL_PLAN)
    cache_pool = state.pool.cache_pool
    before = cache_pool.stored_bytes
    tiny = max(MIN_CACHE_ALLOC_BYTES, before // 4)
    # apply_allocation asserts before == after + evicted internally.
    state.apply_allocation(tiny)
    assert cache_pool.stored_bytes <= tiny
    assert state._boundary_evicted == before - cache_pool.stored_bytes
    assert state._boundary_evicted > 0
    assert state.pool.budget.breaches == 0


GATEWAY_LRU = CachePolicy(placement="gateway", eviction="lru")


@pytest.mark.parametrize("cache_policy", [None, GATEWAY_LRU])
def test_same_value_apply_is_a_noop_boundary(cache_policy):
    """Re-applying the current capacity evicts nothing and marks
    ``(stored, 0)`` — why every shard can take the one boundary path,
    changed allocation or not, with or without placement weights."""
    state = _mid_workload_state(replace(SMALL_PLAN, cache_policy=cache_policy))
    cache_pool = state.pool.cache_pool
    stored = cache_pool.stored_bytes
    evictions = cache_pool.evictions
    ledger_total = state.pool.budget.total_bytes
    for _ in range(2):
        state.apply_allocation(cache_pool.capacity_bytes)
        assert cache_pool.stored_bytes == stored
        assert cache_pool.evictions == evictions
        assert state.pool.budget.total_bytes == ledger_total
        assert state._boundary_stored_before == stored
        assert state._boundary_evicted == 0


def test_plan_cache_policy_field():
    """One vocabulary: the plan carries a CachePolicy (or None) that
    pickles, fingerprints stably, and rejects bad names by field."""
    plan = replace(SMALL_PLAN, cache_policy=GATEWAY_LRU)
    assert pickle.loads(pickle.dumps(plan)) == plan
    fp = plan_fingerprint(plan)
    assert fp == plan_fingerprint(replace(SMALL_PLAN, cache_policy=GATEWAY_LRU))
    assert fp != plan_fingerprint(SMALL_PLAN)
    assert len(fp) == 64 and int(fp, 16) >= 0
    with pytest.raises(ValueError, match="placement"):
        ShardPlan(cache_policy=CachePolicy(placement="nowhere"))
    with pytest.raises(ValueError, match="eviction"):
        ShardPlan(cache_policy=CachePolicy(eviction="random"))
    with pytest.raises(ValueError, match="cache_policy"):
        ShardPlan(cache_policy=("gateway", "lru"))
