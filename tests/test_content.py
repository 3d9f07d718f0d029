"""Tests for the content-centric workload subsystem (repro.content).

The acceptance-level claims pinned here:

* a content workload is a pure function of ``(spec, seed)`` — catalog,
  arrivals, and per-flow object assignment are all byte-identical per
  seed;
* concurrent consumers of the same named object produce real cross-flow
  cache hits (the classic workload's ratio is structurally ~0);
* placement weights apportion a byte-exact total and the eviction
  policies pick the documented victims;
* the ``content_study`` experiment is bit-identical serial vs
  ``--jobs 2``, and its sharded cell is bit-identical for any
  ``--shard-jobs`` value and across a kill-then-resume.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest

from repro.common.apportion import apportion
from repro.content import (
    PLACEMENTS,
    CachePolicy,
    ContentCatalog,
    ContentRegistry,
    ContentSpec,
    object_name,
    placement_weights,
    zipf_weights,
)
from repro.core.cache import CACHE_EVICTION_POLICIES, BlockCache
from repro.experiments.content_study import content_plan
from repro.experiments.runner import RunSpec, run_experiments
from repro.netsim.topology import uniform_chain_specs
from repro.shard import ShardError, run_sharded
from repro.shard.worker import _ShardState
from repro.simcore import RngRegistry, Simulator
from repro.workload import FlowPool, WorkloadSpec, generate_demands


def _content_spec(**overrides):
    base = dict(
        n_objects=32, zipf_s=1.0, mean_object_bytes=10_000,
        size_sigma=0.5, max_object_bytes=40_000,
    )
    base.update(overrides)
    return ContentSpec(**base)


def _pool_spec(content=True, n_flows=120, **overrides):
    base = dict(
        arrival="poisson", rate_per_s=200.0, n_flows=n_flows,
        size_dist="lognormal", mean_size_bytes=10_000, sigma=0.5,
        max_size_bytes=40_000,
        content=_content_spec() if content else None,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestCatalog:
    def test_deterministic_per_seed(self):
        spec = _content_spec()
        a = ContentCatalog.build(spec, np.random.default_rng(5))
        b = ContentCatalog.build(spec, np.random.default_rng(5))
        c = ContentCatalog.build(spec, np.random.default_rng(6))
        assert (a.sizes == b.sizes).all()
        assert (a.weights == b.weights).all()
        assert (a.sizes != c.sizes).any()

    def test_zipf_weights_monotone_and_normalised(self):
        w = zipf_weights(50, 1.0)
        assert len(w) == 50
        assert abs(w.sum() - 1.0) < 1e-12
        assert all(w[i] >= w[i + 1] for i in range(49))

    def test_sizes_clamped(self):
        spec = _content_spec(min_object_bytes=4_000, max_object_bytes=12_000)
        cat = ContentCatalog.build(spec, np.random.default_rng(0))
        assert cat.sizes.min() >= 4_000
        assert cat.sizes.max() <= 12_000

    def test_sample_prefers_popular_objects(self):
        cat = ContentCatalog.build(
            _content_spec(zipf_s=1.2), np.random.default_rng(1)
        )
        ids = cat.sample(np.random.default_rng(2), 4000)
        assert ids.min() >= 0 and ids.max() < cat.n_objects
        counts = np.bincount(ids, minlength=cat.n_objects)
        # Rank 0 must dominate the tail under a skewed catalog.
        assert counts[0] > counts[cat.n_objects // 2]

    def test_block_span(self):
        cat = ContentCatalog.build(_content_spec(), np.random.default_rng(0))
        size = cat.object_size(0)
        assert cat.block_span(0, 4096) == -(-size // 4096)


class TestDemands:
    def test_content_demands_deterministic(self):
        spec = _pool_spec()
        a = generate_demands(spec, RngRegistry(3).stream("workload:arrivals"))
        b = generate_demands(spec, RngRegistry(3).stream("workload:arrivals"))
        assert a == b
        assert all(d.object_id is not None for d in a)

    def test_sizes_come_from_catalog(self):
        spec = _pool_spec()
        demands = generate_demands(
            spec, RngRegistry(0).stream("workload:arrivals")
        )
        cat = ContentCatalog.build(
            spec.content, RngRegistry(0).stream("workload:arrivals")
        )
        for d in demands:
            assert d.size_bytes == cat.object_size(d.object_id)

    def test_classic_demands_have_no_object(self):
        demands = generate_demands(
            _pool_spec(content=False),
            RngRegistry(0).stream("workload:arrivals"),
        )
        assert all(d.object_id is None for d in demands)

    def test_content_requires_poisson(self):
        with pytest.raises(ValueError, match="poisson"):
            WorkloadSpec(
                arrival="trace", trace=((0.0, 1000),),
                content=_content_spec(),
            )


class TestRegistry:
    def test_bind_unbind(self):
        reg = ContentRegistry()
        reg.bind("f1", object_name(3))
        assert reg.object_of("f1") == "obj00003"
        assert reg.object_of("f2") is None
        reg.unbind("f1")
        assert reg.object_of("f1") is None
        reg.unbind("f1")  # idempotent
        assert reg.binds == 1 and reg.unbinds == 1

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ContentRegistry().bind("f1", "")


class TestPlacement:
    def test_uniform_weights(self):
        assert placement_weights("uniform", 5) == (1.0,) * 5

    def test_gateway_emphasises_ends(self):
        w = placement_weights("gateway", 5)
        assert w[0] == w[-1] > w[1] == w[2] == w[3]

    def test_hot_orbit_emphasises_middle(self):
        w = placement_weights("hot_orbit", 5)
        assert w[2] > w[0] == w[-1]

    @pytest.mark.parametrize("total", [7, 1000, 1 << 20, (1 << 20) + 3])
    @pytest.mark.parametrize(
        "placement", ["uniform", "gateway", "hot_orbit"]
    )
    def test_capacities_conserve_total_byte_exact(self, total, placement):
        caps = apportion(total, list(placement_weights(placement, 5)))
        assert sum(caps) == total
        assert all(c >= 1 for c in caps)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            CachePolicy(placement="nowhere", eviction="lru")
        with pytest.raises(ValueError):
            CachePolicy(placement="uniform", eviction="random")


class TestCacheAttribution:
    def test_cross_hits_counted_per_writer(self):
        cache = BlockCache(1 << 20, 4096)
        from repro.common.ranges import ByteRange

        cache.store("obj", ByteRange(0, 8192), 0.0, writer="f1")
        cache.lookup("obj", ByteRange(0, 8192), requester="f1")
        assert cache.stats.cross_hit_bytes == 0
        cache.lookup("obj", ByteRange(0, 8192), requester="f2")
        assert cache.stats.cross_hit_bytes == 8192
        assert cache.stats.hit_bytes == 16384
        assert cache.stats.lookup_bytes == 16384

    def test_lfu_evicts_least_frequent(self):
        from repro.common.ranges import ByteRange

        cache = BlockCache(8192, 4096, eviction="lfu")
        cache.store("a", ByteRange(0, 4096), 0.0)
        cache.store("b", ByteRange(0, 4096), 0.0)
        cache.lookup("a", ByteRange(0, 4096))  # a now more frequent
        cache.store("c", ByteRange(0, 4096), 0.0)  # evicts b
        assert cache.contains("a", ByteRange(0, 4096))
        assert not cache.contains("b", ByteRange(0, 4096))

    def test_lru_evicts_least_recent(self):
        from repro.common.ranges import ByteRange

        cache = BlockCache(8192, 4096, eviction="lru")
        cache.store("a", ByteRange(0, 4096), 0.0)
        cache.store("b", ByteRange(0, 4096), 0.0)
        cache.lookup("a", ByteRange(0, 4096))  # refresh a
        cache.store("c", ByteRange(0, 4096), 0.0)  # evicts b
        assert cache.contains("a", ByteRange(0, 4096))
        assert not cache.contains("b", ByteRange(0, 4096))


def _run_pool(content: bool, policy=None, seed: int = 0):
    sim = Simulator()
    rng = RngRegistry(seed)
    pool = FlowPool(
        sim, rng,
        spec=_pool_spec(content=content),
        hops=uniform_chain_specs(3, rate_bps=40e6, delay_s=0.004),
        protocol="leotp",
        memory_ceiling_bytes=4 << 20,
        cache_policy=policy,
    )
    sim.run(until=120 / 200.0 + 5.0)
    pool.finalize()
    return pool.summary()


class TestPoolSharing:
    def test_content_pool_sees_cross_flow_hits(self):
        s = _run_pool(content=True)
        assert s["completed"] > 0
        assert s["cross_hit_ratio"] > 0.05
        assert s["origin_load_reduction"] > 0.1
        assert s["content_objects"] > 1

    def test_classic_pool_has_no_content_keys(self):
        s = _run_pool(content=False)
        assert "cross_hit_ratio" not in s
        assert "origin_bytes" not in s

    def test_policy_cells_complete(self):
        s = _run_pool(
            content=True,
            policy=CachePolicy(placement="gateway", eviction="lfu"),
        )
        assert s["completed"] > 0
        assert s["budget_breaches"] == 0

    def test_same_seed_same_summary(self):
        a = _run_pool(
            content=True,
            policy=CachePolicy(placement="hot_orbit", eviction="lru"),
        )
        b = _run_pool(
            content=True,
            policy=CachePolicy(placement="hot_orbit", eviction="lru"),
        )
        assert a == b


def _overflowing_cell(placement: str, eviction: str):
    """A pool whose 512 KiB cache is far smaller than its Zipf catalog."""
    sim = Simulator()
    pool = FlowPool(
        sim, RngRegistry(0),
        spec=WorkloadSpec(
            arrival="poisson", rate_per_s=150.0, n_flows=600,
            content=ContentSpec(
                n_objects=300, zipf_s=1.1, mean_object_bytes=12_000,
                size_sigma=0.5,
            ),
        ),
        hops=uniform_chain_specs(5, rate_bps=20e6, delay_s=0.008),
        memory_ceiling_bytes=1 << 20,
        cache_fraction=0.5,
        cache_policy=CachePolicy(placement=placement, eviction=eviction),
    )
    sim.run(until=600 / 150.0 + 4.0)
    pool.finalize()
    return pool, pool.summary()


class TestPolicyAxesDecide:
    def test_placement_and_eviction_each_move_the_hit_ratio(self):
        """Both axes of the policy matrix reach the cache, and the
        eviction column counts what the caches evicted."""
        hit_ratio = {}
        for cell in [("uniform", "lru"), ("gateway", "lru"), ("gateway", "lfu")]:
            pool, s = _overflowing_cell(*cell)
            hit_ratio[cell] = s["cache_hit_ratio"]
            evictions = sum(m.stats.evictions for m in pool.cache_pool.members)
            assert s["cache_pool_evictions"] == evictions > 0
            assert s["budget_breaches"] == 0
            assert s["completed"] == s["arrivals"]
        # Changing only the placement, then only the eviction order.
        assert hit_ratio["gateway", "lru"] != hit_ratio["uniform", "lru"]
        assert hit_ratio["gateway", "lfu"] != hit_ratio["gateway", "lru"]
        # Capacity at the chain ends beats the even split on Zipf demand
        # ("Cache Placement in an NDN Based LEO Constellation", PAPERS.md).
        assert hit_ratio["gateway", "lru"] > hit_ratio["uniform", "lru"] + 0.02


_TINY = RunSpec(scale=0.03, seed=0)


class TestStudyDeterminism:
    def test_serial_vs_jobs2_bit_identical(self):
        serial = run_experiments(["content_study"], _TINY, jobs=1)
        parallel = run_experiments(["content_study"], _TINY, jobs=2)
        assert serial[0].result["rows"] == parallel[0].result["rows"]
        # Row shape: the no-catalog floor on the default cell, then every
        # placement x eviction cell under its real policy names.
        matrix = [
            r for r in serial[0].result["rows"] if r["section"] == "matrix"
        ]
        assert [
            (r["placement"], r["eviction"], r["catalog"]) for r in matrix
        ] == [("uniform", "lru", False)] + [
            (p, e, True) for p in PLACEMENTS for e in CACHE_EVICTION_POLICIES
        ]
        assert len(matrix) == 7
        assert all(type(r["catalog"]) is bool for r in matrix)

    def test_shard_jobs_bit_identical(self):
        plan = content_plan(scale=0.1, seed=2)
        rows1 = run_sharded(plan, jobs=1)
        rows2 = run_sharded(plan, jobs=2)
        rows4 = run_sharded(plan, jobs=4)
        assert rows1["rows"] == rows2["rows"] == rows4["rows"]
        # Content keys made it through the process boundary.
        assert all(
            "cross_hit_ratio" in row
            for row in rows1["rows"] if row["shard"] != "total"
        )

    def test_kill_then_resume_bit_identical(self, monkeypatch):
        plan = content_plan(scale=0.1, seed=2)
        full = run_sharded(plan, jobs=1)
        run = _ShardState.run

        def dies(self):
            if self.index != 1:
                return run(self)
            self.sim.run(until=0.5)
            raise RuntimeError("killed")

        with tempfile.TemporaryDirectory() as d:
            ckpt = os.path.join(d, "ckpt")
            monkeypatch.setattr(_ShardState, "run", dies)
            with pytest.raises(ShardError, match="^shard 1 failed"):
                run_sharded(plan, jobs=2, checkpoint_dir=ckpt)
            monkeypatch.undo()
            resumed = run_sharded(plan, jobs=2, resume_from=ckpt)
        assert resumed["resumed_shards"] >= 1
        assert resumed["rows"] == full["rows"]
