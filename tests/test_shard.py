"""Sharded engine: jobs-independence and shard independence.

The headline guarantee of :mod:`repro.shard` is that ``--jobs`` is an
execution knob, not a modelling knob: serial and parallel runs must be
*bit-identical*.  The reason is that a sharded run *is* ``n_shards``
independent simulations — each equal to a lone ``_ShardState`` driven
to the horizon, never two of them alive in one process.  These tests
pin both.
"""

from __future__ import annotations

import json
import pickle
import weakref
from dataclasses import replace

import pytest

from repro.content import CachePolicy
from repro.shard import (
    ShardError,
    ShardPlan,
    apportion,
    plan_fingerprint,
    run_sharded,
    spill_name,
)
from repro.shard.worker import _ShardState

#: Small-but-alive plan: four shards, one faulted.
SMALL_PLAN = ShardPlan(n_shards=4, arrivals_per_shard=30, drain_s=2.5)


def _payload(result: dict) -> str:
    """The deterministic part of a run, in canonical form."""
    return json.dumps(result["rows"], sort_keys=True)


# ----------------------------------------------------------------------
# apportion: the integer split behind every cache share
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
    with pytest.raises(ValueError, match=r"^jobs must be >= 1, got 0$"):
        run_sharded(SMALL_PLAN, jobs=0)


# ----------------------------------------------------------------------
# budget ledger: a shard outside its slice fails by name
# ----------------------------------------------------------------------


def test_ledger_keeps_every_shard_within_its_slice(monkeypatch):
    """A shard checks its own memory-budget ledger as it finishes: no
    breach, caches inside the slice — or it fails, naming itself."""
    rows = run_sharded(SMALL_PLAN, jobs=1)["rows"]
    assert all(row["budget_breaches"] == 0 for row in rows)
    assert rows[-1]["budget_peak_MiB"] > 0

    build = _ShardState.__init__

    def below_use(self, plan, index, sink_dir=None):
        build(self, plan, index, sink_dir)
        if index == 1:  # a ceiling far below what the shard will hold
            self.pool.budget.ceiling_bytes = 64 << 10

    monkeypatch.setattr(_ShardState, "__init__", below_use)
    with pytest.raises(ShardError, match=r"^shard 1 failed at t=") as excinfo:
        run_sharded(SMALL_PLAN, jobs=1)
    assert excinfo.value.shard == 1
    assert excinfo.value.at_s == SMALL_PLAN.horizon_s
    assert "memory-budget breach" in excinfo.value.message


# ----------------------------------------------------------------------
# shard independence: what makes jobs an execution knob
# ----------------------------------------------------------------------

GATEWAY_LRU = CachePolicy(placement="gateway", eviction="lru")
CONTENT_PLAN = replace(
    SMALL_PLAN, n_objects=12, mean_size_bytes=40_000, max_size_bytes=120_000,
    memory_ceiling_bytes=512 << 10, cache_fraction=0.5, fault_every=2,
    fault_phase=1, cache_policy=GATEWAY_LRU,
)


@pytest.mark.parametrize("plan", [SMALL_PLAN, CONTENT_PLAN],
                         ids=["faulted", "content"])
def test_each_shard_equals_a_lone_state_driven_to_the_horizon(plan, tmp_path):
    """Independence oracle: the engine adds nothing to a shard."""
    out = run_sharded(plan, jobs=2, sink_dir=str(tmp_path / "engine"))
    lone_dir = tmp_path / "lone"
    lone_dir.mkdir()
    assert any(plan.has_fault(i) for i in range(plan.n_shards))
    for index in range(plan.n_shards):
        state = _ShardState(plan, index, str(lone_dir))
        state.run()
        assert state.finalize() == out["rows"][index]
        assert (lone_dir / spill_name(index)).read_bytes() == (
            tmp_path / "engine" / spill_name(index)
        ).read_bytes()
    if plan.n_objects:
        assert out["rows"][-1]["cache_evictions"] > 0  # the cache decided


def test_no_two_shard_states_alive_in_one_process(monkeypatch):
    """A worker holds one shard at a time — here the inline worker."""
    alive: list[weakref.ref] = []
    seen = []
    original = _ShardState.__init__

    def counting(self, plan, index, sink_dir=None):
        seen.append(sum(ref() is not None for ref in alive))
        original(self, plan, index, sink_dir)
        alive.append(weakref.ref(self))

    monkeypatch.setattr(_ShardState, "__init__", counting)
    plan = replace(SMALL_PLAN, n_shards=6, arrivals_per_shard=10)
    run_sharded(plan, jobs=1)
    assert seen == [0] * 6  # nothing left of shard i-1 when i is built
    assert sum(ref() is not None for ref in alive) == 0  # nor afterwards


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
