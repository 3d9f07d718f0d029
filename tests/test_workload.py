"""Tests for the many-flow workload engine (arrivals, budget, pool).

The acceptance-level test here is ``test_pool_sustains_1000_arrivals``:
a FlowPool must carry >= 1000 flow arrivals over one shared chain with
>= 95 % completing, while the memory-budget ledger proves the configured
ceiling held (peak <= ceiling, zero breaches) and retired flows leave no
soft state behind.
"""

from __future__ import annotations

import gc
import pickle

import pytest

from repro.netsim.topology import uniform_chain_specs
from repro.simcore import RngRegistry, Simulator
from repro.workload import (
    FLOW_STATE_BYTES_PER_NODE,
    FairnessTracker,
    FlowPool,
    FlowRecord,
    MemoryBudget,
    SharedCachePool,
    WorkloadSpec,
    generate_demands,
    offered_load_bytes_s,
)


def _poisson_spec(**overrides):
    base = dict(
        arrival="poisson", rate_per_s=200.0, n_flows=100,
        size_dist="lognormal", mean_size_bytes=8_000, sigma=1.0,
        max_size_bytes=50_000,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


class TestArrivals:
    def test_poisson_deterministic_per_seed(self):
        spec = _poisson_spec()
        a = generate_demands(spec, RngRegistry(7).stream("workload:arrivals"))
        b = generate_demands(spec, RngRegistry(7).stream("workload:arrivals"))
        c = generate_demands(spec, RngRegistry(8).stream("workload:arrivals"))
        assert a == b
        assert a != c

    def test_poisson_sorted_and_sized(self):
        spec = _poisson_spec(n_flows=500)
        demands = generate_demands(
            spec, RngRegistry(0).stream("workload:arrivals")
        )
        assert len(demands) == 500
        times = [d.arrival_s for d in demands]
        assert times == sorted(times)
        for d in demands:
            assert spec.min_size_bytes <= d.size_bytes <= spec.max_size_bytes

    def test_lognormal_mean_parameterisation(self):
        # mu = ln(mean) - sigma^2/2 keeps the configured mean honest
        # (clipping skews it a little; accept a generous band).
        spec = _poisson_spec(n_flows=5000, mean_size_bytes=10_000,
                             max_size_bytes=2_000_000)
        demands = generate_demands(
            spec, RngRegistry(1).stream("workload:arrivals")
        )
        mean = sum(d.size_bytes for d in demands) / len(demands)
        assert 8_000 < mean < 12_500

    def test_fixed_sizes(self):
        spec = _poisson_spec(size_dist="fixed", mean_size_bytes=4_000)
        demands = generate_demands(
            spec, RngRegistry(0).stream("workload:arrivals")
        )
        assert {d.size_bytes for d in demands} == {4_000}

    def test_trace_arrivals(self):
        spec = WorkloadSpec(
            arrival="trace", trace=((0.0, 1000), (0.5, 2000), (0.5, 3000)),
        )
        demands = generate_demands(
            spec, RngRegistry(0).stream("workload:arrivals")
        )
        assert [d.size_bytes for d in demands] == [1000, 2000, 3000]
        assert offered_load_bytes_s(demands) == pytest.approx(6000 / 0.5)

    def test_trace_must_be_sorted(self):
        with pytest.raises(ValueError, match="^trace "):
            WorkloadSpec(arrival="trace", trace=((1.0, 100), (0.5, 100)))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(arrival="burst")
        with pytest.raises(ValueError):
            WorkloadSpec(size_dist="pareto")
        with pytest.raises(ValueError):
            WorkloadSpec(rate_per_s=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(arrival="trace", trace=())
        with pytest.raises(ValueError):
            WorkloadSpec(min_size_bytes=2000, max_size_bytes=1000)
        with pytest.raises(ValueError):
            WorkloadSpec(closed_loop=True, target_concurrency=0)


class TestMemoryBudget:
    def test_accounts_and_peak(self):
        budget = MemoryBudget(1000)
        budget.set_account("cache", 600)
        budget.charge("flows", 300)
        assert budget.total_bytes == 900
        assert budget.account("cache") == 600
        budget.set_account("cache", 100)
        assert budget.total_bytes == 400
        assert budget.peak_bytes == 900
        assert budget.breaches == 0

    def test_breach_counting(self):
        budget = MemoryBudget(1000)
        budget.set_account("cache", 1500)
        assert budget.breaches == 1
        assert budget.peak_bytes == 1500
        # One excursion counts once, however often the ledger is written.
        budget.set_account("cache", 1500)
        budget.charge("flows", 100)
        assert budget.breaches == 1
        # Back under the ceiling and over again: a second excursion.
        budget.set_account("cache", 800)
        budget.set_account("cache", 1200)
        assert budget.breaches == 2
        assert budget.peak_bytes == 1600

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)
        budget = MemoryBudget(100)
        with pytest.raises(ValueError):
            budget.charge("flows", -1)


class TestSharedCachePool:
    def _store(self, cache, flow, start, nbytes, ts=0.0):
        from repro.common.ranges import ByteRange

        cache.store(flow, ByteRange(start, start + nbytes), ts)

    def test_members_evict_against_their_own_share(self):
        budget = MemoryBudget(100_000)
        pool = SharedCachePool(
            3 * 4096, [2, 1], block_bytes=4096, budget=budget
        )
        a, b = pool.members
        assert (a.capacity_bytes, b.capacity_bytes) == (2 * 4096, 4096)
        self._store(a, "f1", 0, 4096)
        self._store(a, "f1", 4096, 4096)
        self._store(b, "f2", 0, 4096)
        assert pool.stored_bytes == 3 * 4096
        assert pool.evictions == 0
        # b's share is full: its next block evicts b's own oldest block,
        # although a holds more — nothing arbitrates between members.
        self._store(b, "f2", 4096, 4096)
        assert (a.stored_bytes, b.stored_bytes) == (2 * 4096, 4096)
        assert pool.evictions == b.stats.evictions == 1
        assert pool.stored_bytes == 3 * 4096 <= pool.capacity_bytes
        assert budget.account("cache") == pool.stored_bytes

    def test_ledger_is_posted_only_when_occupancy_moves(self):
        """Re-storing bytes that full blocks already hold moves no
        occupancy and posts nothing, yet the ledger's total, peak and
        breach count stay those of posting after every operation."""
        budget, reference = MemoryBudget(3 * 4096), MemoryBudget(3 * 4096)
        for ledger in (budget, reference):
            ledger.charge("flows", 4096)  # so the cache can breach
        posts = []
        post = budget.set_account
        budget.set_account = lambda name, n: (posts.append(n), post(name, n))
        pool = SharedCachePool(4 * 4096, [1, 1], block_bytes=4096, budget=budget)
        a, b = pool.members
        ops = [
            lambda: self._store(a, "f1", 0, 4096),
            lambda: self._store(b, "f2", 0, 4096),
            lambda: self._store(a, "f1", 0, 4096),  # a full block: no move
            lambda: self._store(b, "f2", 1000, 2000),  # likewise
            lambda: self._store(a, "f1", 4096, 4096),  # over the ceiling
            lambda: self._store(a, "f1", 4096, 4096),
            lambda: b.drop_flow("f2"),  # back under
            lambda: b.drop_flow("f2"),  # nothing left to drop
            lambda: self._store(b, "f3", 0, 4096),  # over again
            lambda: a.clear(),
            lambda: a.clear(),
        ]
        for op in ops:
            op()
            reference.set_account("cache", pool.stored_bytes)
        assert posts == [4096, 8192, 12288, 8192, 12288, 4096]
        assert (budget.total_bytes, budget.peak_bytes, budget.breaches) == (
            reference.total_bytes, reference.peak_bytes, reference.breaches,
        ) == (8192, 16384, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            SharedCachePool(0, [1])
        with pytest.raises(ValueError):
            SharedCachePool(8192, [])
        with pytest.raises(ValueError):
            SharedCachePool(8192, [1, 0])
        with pytest.raises(ValueError):
            SharedCachePool(8192, [1, 1], eviction="random")


class TestFlowMetrics:
    def test_flow_record_derivations(self):
        rec = FlowRecord("w1", arrival_s=1.0, size_bytes=10_000,
                         start_s=1.0, finish_s=3.0)
        assert rec.completed
        assert rec.fct_s == pytest.approx(2.0)
        assert rec.goodput_bytes_s == pytest.approx(5_000.0)
        aborted = FlowRecord("w2", 0.0, 1, 0.0, finish_s=None, aborted=True)
        assert not aborted.completed
        assert aborted.fct_s is None and aborted.goodput_bytes_s is None

    def test_windowed_jain(self):
        tracker = FairnessTracker(window_s=1.0)
        # Window 0: perfectly fair.  Window 1: single flow (skipped).
        # Window 2: maximally unfair between two flows.
        tracker.on_delivery("a", 1000, 0.1)
        tracker.on_delivery("b", 1000, 0.9)
        tracker.on_delivery("a", 500, 1.5)
        tracker.on_delivery("a", 1000, 2.2)
        tracker.on_delivery("b", 0, 2.3)
        windows = tracker.windowed_jain()
        assert [t for t, _ in windows] == [0.0, 2.0]
        assert windows[0][1] == pytest.approx(1.0)
        assert windows[1][1] == pytest.approx(0.5)
        summary = tracker.summary()
        assert summary["windows"] == 2.0
        assert summary["jain_min"] == pytest.approx(0.5)

    def test_empty_tracker_vacuous(self):
        assert FairnessTracker().summary() == {
            "jain_mean": 1.0, "jain_min": 1.0, "windows": 0.0,
        }

    def test_fct_percentiles_and_cdf(self):
        from repro.analysis.stats import fct_percentiles, goodput_cdf

        stats = fct_percentiles([0.1 * (i + 1) for i in range(100)])
        assert stats["fct_p50_s"] == pytest.approx(5.05, abs=0.1)
        assert stats["fct_p99_s"] <= 10.0
        assert fct_percentiles([]) == {
            "fct_p50_s": 0.0, "fct_p90_s": 0.0,
            "fct_p99_s": 0.0, "fct_mean_s": 0.0,
        }
        cdf = goodput_cdf([1.0, 2.0, 3.0], points=3)
        assert cdf[0] == (1.0, 0.0) and cdf[-1] == (3.0, 1.0)


def _run_pool(protocol="leotp", n_flows=150, seed=0, *, rate_per_s=150.0,
              ceiling=8 << 20, n_hops=2, drain_s=6.0, spec_overrides=None,
              **pool_kwargs):
    spec_kwargs = dict(
        n_flows=n_flows, rate_per_s=rate_per_s, mean_size_bytes=6_000,
        max_size_bytes=30_000,
    )
    spec_kwargs.update(spec_overrides or {})
    spec = _poisson_spec(**spec_kwargs)
    sim = Simulator()
    pool = FlowPool(
        sim, RngRegistry(seed), spec=spec,
        hops=uniform_chain_specs(n_hops, rate_bps=40e6, delay_s=0.004),
        protocol=protocol, memory_ceiling_bytes=ceiling, **pool_kwargs,
    )
    sim.run(until=n_flows / rate_per_s + drain_s)
    pool.finalize()
    return pool


def _only_the_collector_frees(run):
    """``run()`` with the cycle collector off: its result, and every object
    that was unreachable afterwards yet not freed by reference count."""
    gc.collect()
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        result = run()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return result, list(gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def _midnode_flow_state_in(garbage):
    """Instances of what a Midnode keeps per flow among ``garbage`` (a
    Consumer's own hole detector, part of its ring, is not the node's)."""
    from repro.core import Consumer, PacedSender, SeqHoleDetector, TokenBucket
    from repro.core.midnode import _FlowState
    from repro.core.paced import ResendSuppressor

    consumers_own = {id(o.shr) for o in garbage if isinstance(o, Consumer)}
    per_flow = (_FlowState, PacedSender, TokenBucket, ResendSuppressor,
                SeqHoleDetector)
    return [
        o for o in garbage
        if isinstance(o, per_flow) and id(o) not in consumers_own
    ]


class TestFlowPool:
    def test_retired_midnode_state_dies_by_refcount(self):
        """A retired flow's Midnode state (sender, bucket, suppressor,
        controller, hole detector) is freed when it retires, not when the
        cycle collector next finds it; what stays cyclic per flow is the
        Consumer <-> access-link ring (33 objects, DESIGN.md §6)."""
        pool, garbage = _only_the_collector_frees(
            lambda: _run_pool(n_flows=200, n_hops=5)
        )
        completed = pool.summary()["completed"]
        assert len(pool.midnodes) == 5 and completed >= 190
        assert _midnode_flow_state_in(garbage) == []
        assert len(garbage) / completed <= 40  # 153 with the state ring

    def test_crashed_midnode_state_dies_by_refcount(self):
        def run():
            spec = _poisson_spec(n_flows=200, rate_per_s=150.0)
            sim = Simulator()
            pool = FlowPool(
                sim, RngRegistry(0), spec=spec,
                hops=uniform_chain_specs(5, rate_bps=40e6, delay_s=0.004),
            )
            sim.run(until=0.7)
            lost = [len(mid._flows) for mid in pool.midnodes]
            for mid in pool.midnodes:
                mid.crash()
            return pool, lost

        (pool, lost), garbage = _only_the_collector_frees(run)
        assert min(lost) > 0  # every node was holding live flows
        assert all(mid._flows == {} for mid in pool.midnodes)
        assert _midnode_flow_state_in(garbage) == []

    def test_pool_sustains_1000_arrivals(self):
        """Acceptance: >= 1000 arrivals, >= 95 % completed, budget held."""
        pool = _run_pool(n_flows=1000, rate_per_s=300.0)
        summary = pool.summary()
        assert summary["arrivals"] >= 1000
        assert summary["completed"] >= 0.95 * summary["arrivals"]
        assert summary["budget_peak_bytes"] <= pool.budget.ceiling_bytes
        assert summary["budget_breaches"] == 0
        # Retirement left no per-flow soft state on the shared nodes.
        assert pool.producer._flows == {}
        for mid in pool.midnodes:
            assert mid._flows == {}

    def test_tcp_pool_completes(self):
        pool = _run_pool(protocol="cubic", n_flows=80)
        summary = pool.summary()
        assert summary["completed"] >= 0.95 * summary["arrivals"]
        assert summary["budget_breaches"] == 0
        # Routes were retired along with the flows.
        for router in pool.routers:
            assert len(router._routes) == 0

    @pytest.mark.parametrize("protocol", ["bbr", "cubic"])
    def test_completed_tcp_flow_leaves_no_zombie_sender(self, protocol, monkeypatch):
        """Completion stops the sender: on a lossless chain nothing is
        ever retransmitted, and no timer of a retired flow stays armed."""
        from repro.tcp import connection

        senders = []
        make = connection.TcpSender

        def recording_make(*args, **kwargs):
            senders.append(make(*args, **kwargs))
            return senders[-1]

        monkeypatch.setattr(connection, "TcpSender", recording_make)
        pool = _run_pool(protocol=protocol, n_flows=80, drain_s=1.0)
        assert pool.summary()["completed"] == len(senders) == 80
        frozen = [s.data_segments_sent for s in senders]
        for sender in senders:
            assert not sender._rto_timer.armed and not sender._pace_timer.armed
        assert sum(s.retransmissions + s.timeouts for s in senders) == 0
        pool.sim.run(until=pool.sim.now + 5.0)
        assert [s.data_segments_sent for s in senders] == frozen

    def test_deterministic_per_seed(self):
        a = _run_pool(n_flows=120, seed=3).summary()
        b = _run_pool(n_flows=120, seed=3).summary()
        c = _run_pool(n_flows=120, seed=4).summary()
        assert a == b
        assert a != c

    def test_tight_cache_budget_evicts_not_breaches(self):
        """A tiny ceiling forces cache evictions, never ledger breaches."""
        # A burst of ~simultaneous flows pins far more content than the
        # 512 KB cache slice (0.25 * 2 MiB) can hold at once.
        pool = _run_pool(
            n_flows=250, rate_per_s=500.0, ceiling=2 << 20,
            cache_fraction=0.25,
            spec_overrides=dict(mean_size_bytes=15_000, max_size_bytes=60_000),
        )
        summary = pool.summary()
        assert summary["cache_pool_evictions"] > 0
        assert summary["budget_peak_bytes"] <= 2 << 20
        assert summary["budget_breaches"] == 0
        assert summary["completed"] >= 0.95 * summary["arrivals"]

    def test_admission_control_rejects_over_budget_arrivals(self):
        # Flow share = ceiling - cache slice; make it only big enough for
        # a handful of concurrent flows, then offer a burst.
        responders = 2 + 1
        flow_state = FLOW_STATE_BYTES_PER_NODE * responders
        ceiling = 100_000
        pool = _run_pool(
            n_flows=400, rate_per_s=2000.0, ceiling=ceiling,
            cache_fraction=0.97,
        )
        flow_share = ceiling - int(ceiling * 0.97)
        max_live = flow_share // flow_state
        assert pool.admission_rejects > 0
        assert pool.peak_concurrency <= max_live
        assert pool.summary()["budget_breaches"] == 0

    def test_closed_loop_holds_target_concurrency(self):
        pool = _run_pool(
            n_flows=100,
            spec_overrides=dict(closed_loop=True, target_concurrency=12),
        )
        assert pool.peak_concurrency == 12
        assert pool.summary()["completed"] >= 95

    def test_finalize_aborts_stragglers(self):
        pool = _run_pool(n_flows=200, rate_per_s=100.0, drain_s=-1.4)
        summary = pool.summary()
        assert summary["aborted"] > 0
        assert summary["arrivals"] == summary["completed"] + summary["aborted"]
        assert pool.active_flows == 0

    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FlowPool(sim, RngRegistry(0), spec=_poisson_spec(), hops=[])
        with pytest.raises(ValueError):
            FlowPool(
                sim, RngRegistry(0), spec=_poisson_spec(),
                hops=uniform_chain_specs(2), cache_fraction=1.5,
            )
        with pytest.raises(ValueError):
            FlowPool(
                sim, RngRegistry(0), spec=_poisson_spec(),
                hops=uniform_chain_specs(2), name="",
            )
        with pytest.raises(ValueError, match="CachePolicy or None"):
            FlowPool(
                sim, RngRegistry(0), spec=_poisson_spec(),
                hops=uniform_chain_specs(2), cache_policy=("gateway", "lru"),
            )
        # A bad CC choice fails while the pool is built, not mid-run.
        with pytest.raises(ValueError, match="unknown congestion control"):
            FlowPool(
                sim, RngRegistry(0), spec=_poisson_spec(),
                hops=uniform_chain_specs(2), protocol="quic",
            )


class TestFlowAborts:
    def _mid_run_pool(self, *, abort_at, action, n_flows=60,
                      rate_per_s=60.0, **pool_kwargs):
        spec = _poisson_spec(
            n_flows=n_flows, rate_per_s=rate_per_s,
            mean_size_bytes=20_000, max_size_bytes=80_000,
        )
        sim = Simulator()
        pool = FlowPool(
            sim, RngRegistry(0), spec=spec,
            hops=uniform_chain_specs(2, rate_bps=20e6, delay_s=0.004),
            protocol="leotp", **pool_kwargs,
        )
        sim.schedule_at(abort_at, action, pool)
        sim.run(until=n_flows / rate_per_s + 6.0)
        pool.finalize()
        return pool

    def test_abort_live_records_reason(self):
        aborted = {}

        def act(pool):
            aborted["n"] = pool.abort_live("no_route")

        pool = self._mid_run_pool(abort_at=0.5, action=act)
        assert aborted["n"] > 0
        summary = pool.summary()
        assert summary["aborted"] >= aborted["n"]
        assert summary["aborted_no_route"] == aborted["n"]
        records = [
            r for r in pool.records if r.abort_reason == "no_route"
        ]
        assert len(records) == aborted["n"]
        for record in records:
            assert record.aborted and not record.completed
            assert record.finish_s == pytest.approx(0.5)

    def test_abort_does_not_kill_the_run(self):
        """A transient routing gap aborts affected flows; later arrivals
        still complete and shared nodes carry no dead soft state."""

        def act(pool):
            pool.abort_live("no_route")

        pool = self._mid_run_pool(abort_at=0.3, action=act)
        summary = pool.summary()
        assert summary["completed"] > 0
        assert (
            summary["arrivals"]
            == summary["completed"] + summary["aborted"]
        )
        assert pool.producer._flows == {}
        for mid in pool.midnodes:
            assert mid._flows == {}

    def test_abort_unknown_flow_returns_false(self):
        sim = Simulator()
        pool = FlowPool(
            sim, RngRegistry(0), spec=_poisson_spec(),
            hops=uniform_chain_specs(2),
        )
        assert pool.abort_flow("w99999") is False

    def test_admission_and_unfinished_reasons_recorded(self):
        pool = _run_pool(
            n_flows=200, rate_per_s=2000.0, ceiling=100_000,
            cache_fraction=0.97, drain_s=-0.05,
        )
        summary = pool.summary()
        assert summary.get("aborted_admission", 0) > 0
        by_reason = {}
        for record in pool.records:
            if record.abort_reason:
                by_reason.setdefault(record.abort_reason, 0)
                by_reason[record.abort_reason] += 1
        assert by_reason.get("admission") == summary["aborted_admission"]

    def test_named_pool_namespaces_everything(self):
        spec = _poisson_spec(n_flows=10, rate_per_s=50.0)
        sim = Simulator()
        pool = FlowPool(
            sim, RngRegistry(0), spec=spec,
            hops=uniform_chain_specs(2), name="bjpr",
        )
        assert pool.producer.name == "bjpr-prod"
        assert all(m.name.startswith("bjpr-mid") for m in pool.midnodes)
        sim.run(until=1.0)
        assert all(fid.startswith("bjpr-w") for fid in pool._live)

    def test_two_named_pools_share_one_simulator(self):
        spec = _poisson_spec(n_flows=30, rate_per_s=60.0)
        sim = Simulator()
        rng = RngRegistry(0)
        hops = uniform_chain_specs(2, rate_bps=20e6, delay_s=0.004)
        pools = [
            FlowPool(sim, rng, spec=spec, hops=hops, name=name)
            for name in ("east", "west")
        ]
        sim.run(until=5.0)
        for pool in pools:
            pool.finalize()
            assert pool.summary()["completed"] >= 0.9 * 30

    def test_default_name_preserves_flow_ids(self):
        # Bit-identity guard: the unnamed pool must keep the historical
        # un-prefixed flow ids ("w00000") and node names ("pool-prod").
        sim = Simulator()
        pool = FlowPool(
            sim, RngRegistry(0),
            spec=_poisson_spec(n_flows=5, rate_per_s=100.0),
            hops=uniform_chain_specs(2),
        )
        sim.run(until=1.0)
        pool.finalize()
        assert pool.name == "pool"
        assert pool.producer.name == "pool-prod"
        assert all(r.flow_id.startswith("w000") for r in pool.records)


class _ListSink(list):
    """The smallest result sink: ``write(row)`` appends to a list."""

    write = list.append


class TestFlowRecords:
    """One FlowRecord per arrival: shared by ``records`` and the live
    index, and spilled without moving any reported number."""

    def _pool(self, **pool_kwargs):
        spec = _poisson_spec(
            n_flows=150, rate_per_s=150.0, mean_size_bytes=20_000,
            max_size_bytes=80_000,
        )
        sim = Simulator()
        pool = FlowPool(
            sim, RngRegistry(0), spec=spec,
            hops=uniform_chain_specs(2, rate_bps=20e6, delay_s=0.004),
            **pool_kwargs,
        )
        return sim, pool

    def test_pickle_mid_run_keeps_live_records_shared(self):
        sim, pool = self._pool()
        sim.run(until=0.5)
        clone = pickle.loads(pickle.dumps(pool))
        assert clone._live and len(clone._live) == len(pool._live)
        resident = {r.flow_id: r for r in clone.records}
        for flow_id, live in clone._live.items():
            assert resident[flow_id] is live.record
            assert live.endpoint.flow_id == flow_id
        # ...so the restored pool closes the same records it reports.
        for s, p in ((sim, pool), (clone.sim, clone)):
            s.run(until=4.0)
            p.finalize()
        assert clone.records == pool.records
        assert clone.summary() == pool.summary()

    def test_spill_cadence_moves_no_row_and_no_summary_key(self):
        """Rows spill as flows close, and spilling moves no number."""
        sink = _ListSink()
        sim, pool = self._pool(result_sink=sink)
        sim.run(until=1.0)  # ends mid-workload: some flows unfinished
        pool.finalize()
        assert pool.records == [] and len(sink) == pool.arrivals
        # Rows come in close order: completions by their finish time,
        # then the flows finalize left unfinished.
        finished = [row["finish_s"] for row in sink if row["reason"] is None]
        assert finished == sorted(finished)
        assert {row["reason"] for row in sink} == {None, "unfinished"}

        # ...and neither differs from never spilling at all.
        sim, kept = self._pool()
        sim.run(until=1.0)
        kept.finalize()
        assert kept.summary() == pool.summary()
        assert sorted(row["idx"] for row in sink) == [
            r.index for r in kept.records
        ] == list(range(kept.arrivals))

    def test_every_close_path_writes_its_record_as_the_row(self):
        """Admission refusals, aborts, completions and flows left
        unfinished all close through one path: with a sink or without,
        each arrival gets one row, equal to its record field for field."""
        def run(sink):
            # A 5 % flow share holds three flows' soft state: the rest
            # of a burst is refused at admission.
            sim, pool = self._pool(
                memory_ceiling_bytes=100_000, cache_fraction=0.95,
                result_sink=sink,
            )
            sim.schedule_at(0.3, lambda: pool.abort_live("no_route"))
            sim.run(until=0.6)
            pool.finalize()
            return pool

        def row(r: FlowRecord) -> dict:
            return {
                "idx": r.index, "flow": r.flow_id, "arrival_s": r.arrival_s,
                "size_b": r.size_bytes, "start_s": r.start_s,
                "finish_s": r.finish_s,
                "status": "aborted" if r.aborted else "completed",
                "reason": r.abort_reason,
            }

        sink = _ListSink()
        spilled, kept = run(sink), run(None)
        assert spilled.records == [] and len(sink) == spilled.arrivals
        assert sorted(sink, key=lambda row: row["idx"]) == [
            row(r) for r in kept.records
        ]
        assert len(kept.records) == kept.arrivals
        assert spilled.summary() == kept.summary()
        assert {r["reason"] for r in sink} == {
            None, "admission", "no_route", "unfinished",
        }
        for r in sink:
            assert (r["finish_s"] is None) == (
                r["reason"] in ("admission", "unfinished")
            )


class TestWorkloadExperiment:
    def test_experiment_smoke(self):
        from repro.experiments import ALL_EXPERIMENTS

        result = ALL_EXPERIMENTS["workload"](scale=0.01)
        assert [row["protocol"] for row in result.rows] == [
            "leotp", "bbr", "cubic",
        ]
        for row in result.rows:
            assert row["arrivals"] == 60
            assert row["completed"] >= 0.95 * row["arrivals"]
            assert row["budget_breaches"] == 0
            assert 0.0 < row["jain_mean"] <= 1.0

    def test_rows_bit_identical_serial_vs_jobs2(self):
        from repro.experiments.runner import RunSpec, run_experiments

        spec = RunSpec(scale=0.01, seed=0)
        serial = run_experiments(["workload"], spec, jobs=1)
        parallel = run_experiments(["workload"], spec, jobs=2)
        assert serial[0].result["rows"] == parallel[0].result["rows"]

    def test_workload_summary_renders(self):
        from repro.analysis.report import workload_summary
        from repro.experiments import ALL_EXPERIMENTS

        result = ALL_EXPERIMENTS["workload"](scale=0.01)
        text = workload_summary(result.rows)
        for needle in ("workload", "fct", "jain", "budget"):
            assert needle in text.lower()
