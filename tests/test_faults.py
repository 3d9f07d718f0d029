"""Unit tests for the fault-injection subsystem (repro.faults)."""

import inspect
import pickle
import re
import sys
import textwrap
from functools import partial
from types import SimpleNamespace

import pytest

from repro.common.ranges import ByteRange
from repro.common.rto import RtoEstimator
from repro.core import LeotpConfig, build_leotp_path
from repro.core.congestion import HopRateController
from repro.core.consumer import Consumer
from repro.core.paced import ResendSuppressor
from repro.core.shr import SeqHoleDetector
from repro.faults import (
    CorrelatedLoss,
    GilbertElliottLoss,
    InvariantViolation,
    LinkDown,
    LinkFlap,
    NodeCrash,
    Timeline,
    TimelineDriver,
    check_flow,
    recovery_report,
    run_chaos,
)
from repro.experiments.common import PathSpec, build_path
from repro.netsim.link import DuplexLink, Link
from repro.netsim.node import SinkNode
from repro.netsim.packet import Packet
from repro.netsim.topology import uniform_chain_specs
from repro.netsim.trace import FlowRecorder
from repro.shard import ShardError, ShardPlan, run_sharded
from repro.simcore import RngRegistry, Simulator
from repro.workload import FlowPool, WorkloadSpec


def make_link(sim, sink, **kwargs):
    defaults = dict(rate_bps=8e6, delay_s=0.001)
    defaults.update(kwargs)
    return Link(sim, sink, **defaults)


class TestFaultSchedule:
    def test_events_iterate_in_time_order(self):
        timeline = Timeline(LinkDown(5.0, 1) + LinkDown(1.0, 0))
        assert [t for t, *_ in timeline.entries] == [1.0, 2.0, 5.0, 6.0]
        # Entries at one instant keep the order given.
        both = Timeline(((1.0, 0, "up", False), (1.0, 0, "up", True)))
        assert [value for *_, value in both.entries] == [False, True]

    def test_validation_rejects_nonsense(self):
        with pytest.raises(ValueError, match="negative"):
            Timeline(LinkDown(-1.0, 0))
        with pytest.raises(ValueError, match="hop index"):
            Timeline(LinkDown(0.0, -1))
        with pytest.raises(ValueError, match="duration_s must be positive"):
            LinkDown(0.0, 0, duration_s=0.0)
        with pytest.raises(ValueError, match="a node has only up"):
            Timeline(((0.0, "n", "delay_s", 0.1),))
        with pytest.raises(ValueError, match="out of its range"):
            Timeline(((0.0, 0, "rate", 0.0),))
        with pytest.raises(ValueError, match="out of its range"):
            Timeline(((0.0, 0, "loss", 1.0),))
        with pytest.raises(ValueError, match="restart_after_s"):
            NodeCrash(0.0, "n", restart_after_s=0.0)
        with pytest.raises(ValueError, match=r"\(t, target, field, value\)"):
            Timeline(("not an entry",))

    def test_flap_expands_to_periodic_downs(self):
        flap = LinkFlap(2.0, 0, down_s=0.2, up_s=0.3, cycles=3)
        downs = [t for t, _, _, up in flap if not up]
        ups = [t for t, _, _, up in flap if up]
        assert downs == [2.0, 2.5, 3.0]
        assert ups == pytest.approx([2.2, 2.7, 3.2, 3.5])

    def test_last_fault_end(self):
        timeline = Timeline(
            LinkDown(1.0, 0, duration_s=2.0)
            + LinkFlap(3.5, 0, down_s=0.5, up_s=0.5, cycles=4)
            + NodeCrash(3.0, "n", restart_after_s=1.5)
        )
        # The flap's last up period ends last.
        assert timeline.fault_window == pytest.approx((1.0, 7.5))
        assert Timeline().fault_window == (0.0, 0.0)
        # Delay entries are not faults.
        assert Timeline(((1.0, 0, "delay_s", 0.1),)).fault_window == (0.0, 0.0)

    def test_a_timeline_pickles_to_an_equal_hashable_value(self):
        timeline = Timeline(
            LinkFlap(1.0, 2) + NodeCrash(2.0, "leotp-mid1")
            + CorrelatedLoss(4.0, 1) + ((0.5, 0, "delay_s", 0.02),)
            + ((3.0, "BJ-PR", "signal", "PathSwitch"),)
        )
        copy = pickle.loads(pickle.dumps(timeline))
        assert copy == timeline and copy is not timeline
        assert hash(copy) == hash(timeline)
        assert {copy, timeline} == {timeline}


class TestScheduleValidate:
    def test_overlapping_same_link_rejected(self):
        with pytest.raises(ValueError, match="entries overlap: a up fault"):
            Timeline(LinkDown(1.0, 0, 2.0) + LinkDown(2.0, 0, 1.0))

    def test_abutting_same_link_rejected(self):
        # A fault that starts at the instant the last one ended is one
        # fault: merge them.
        with pytest.raises(ValueError, match="entries overlap"):
            Timeline(LinkDown(1.0, 0, 1.0) + LinkDown(2.0, 0, 1.0))

    def test_disjoint_and_cross_target_pass(self):
        timeline = Timeline(
            LinkDown(1.0, 0, 0.5) + LinkDown(2.0, 0, 0.5)
            + LinkDown(1.0, 1, 5.0)  # other hop
            + CorrelatedLoss(1.0, 0, 5.0)  # other field
        )
        assert len(timeline.entries) == 8

    def test_flap_expansion_collides_with_plain_down(self):
        with pytest.raises(ValueError, match="entries overlap"):
            Timeline(
                LinkFlap(1.0, 0, down_s=0.2, up_s=0.3, cycles=3)
                + LinkDown(1.6, 0, 0.1)  # inside cycle 2
            )

    def test_delay_spikes_exempt(self):
        # Delay entries are absolute values: they compose in any order.
        timeline = Timeline((
            (1.0, 0, "delay_s", 0.1), (2.0, 0, "delay_s", 0.2),
            (2.0, 0, "delay_s", 0.05), (3.0, 0, "delay_s", 0.01),
        ))
        assert len(timeline.entries) == 4

    def test_unbounded_crash_overlaps_everything_later(self):
        with pytest.raises(ValueError, match="'n'"):
            Timeline(
                NodeCrash(1.0, "n", restart_after_s=None)
                + NodeCrash(50.0, "n", restart_after_s=1.0)
            )

    def test_arm_validates(self):
        sim, sink, duplex, _ = _one_hop()
        with pytest.raises(ValueError, match="^timeline targets hop 1"):
            TimelineDriver(sim, SimpleNamespace(links=[duplex]),
                           Timeline(LinkDown(1.0, 1)))


def _one_hop(timeline=Timeline()):
    """A duplex hop into a sink, with ``timeline`` armed on it."""
    sim = Simulator()
    sink = SinkNode(sim, "s")
    duplex = DuplexLink(sim, SinkNode(sim, "a"), sink, rate_bps=8e6,
                        delay_s=0.001, queue_bytes=None)
    path = SimpleNamespace(links=[duplex], nodes=[sink])
    return sim, sink, duplex, TimelineDriver(sim, path, timeline,
                                             RngRegistry(0))


class TestGilbertElliott:
    def test_deterministic_per_stream(self):
        def drops(seed):
            model = GilbertElliottLoss(
                RngRegistry(seed).stream("ge"),
                p_good_bad=0.1, p_bad_good=0.3, loss_bad=0.7,
            )
            return [model(Packet(100)) for _ in range(500)]

        assert drops(7) == drops(7)
        assert drops(7) != drops(8)

    def test_loss_is_bursty(self):
        model = GilbertElliottLoss(
            RngRegistry(1).stream("ge"),
            p_good_bad=0.02, p_bad_good=0.2, loss_good=0.0, loss_bad=1.0,
        )
        outcomes = [model(Packet(100)) for _ in range(20000)]
        assert model.bursts_entered > 0
        # Mean burst length 1/p_bad_good = 5 >> what Bernoulli at the same
        # average rate would produce; check losses clump into runs.
        runs = []
        current = 0
        for lost in outcomes:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        assert runs and sum(runs) / len(runs) > 2.0
        assert 0.0 < model.loss_rate < 0.5

    def test_attached_to_link_drops_packets(self):
        sim = Simulator()
        sink = SinkNode(sim)
        link = make_link(sim, sink, queue_bytes=None)
        link.loss_model = GilbertElliottLoss(
            RngRegistry(2).stream("ge"), p_good_bad=0.5, p_bad_good=0.1,
            loss_bad=1.0,
        )
        for _ in range(500):
            link.send(Packet(100))
        sim.run()
        assert link.stats.packets_dropped_loss > 0
        assert len(sink.received) == 500 - link.stats.packets_dropped_loss


def _send_at(sim, link, *times):
    for t in times:
        sim.schedule_at(t, lambda: link.send(Packet(100)))


class TestFaultInjector:
    def test_link_down_and_restore(self):
        sim, sink, duplex, driver = _one_hop(Timeline(LinkDown(0.01, 0, 0.02)))
        # One packet before, one during, one after the outage.
        _send_at(sim, duplex.ab, 0.0, 0.02, 0.05)
        sim.run()
        assert len(sink.received) == 2
        assert duplex.ab.up and duplex.ba.up
        assert [m for _, m in driver.log] == ["hop0 DOWN (0 flushed)", "hop0 UP"]

    def test_down_flushes_queue(self):
        sim, sink, duplex, driver = _one_hop(Timeline(LinkDown(0.005, 0)))
        for _ in range(5):
            duplex.ab.send(Packet(10000))  # 10 ms serialisation each
        sim.run()
        # The packet mid-serialisation completes; the queued four are flushed.
        assert len(sink.received) == 1
        assert duplex.ab.stats.packets_dropped_flush == 4
        assert driver.log[0] == (0.005, "hop0 DOWN (4 flushed)")

    def test_delay_spike_applies_and_restores_delta(self):
        sim, sink, duplex, _ = _one_hop(Timeline((
            (0.01, 0, "delay_s", 0.101), (0.03, 0, "delay_s", 0.001),
        )))
        sim.run(until=0.015)
        assert duplex.ab.delay_s == duplex.ba.delay_s == 0.101
        sim.run(until=0.05)
        assert duplex.ab.delay_s == duplex.ba.delay_s == 0.001

    def test_bandwidth_collapse_scales_and_restores(self):
        sim, sink, duplex, driver = _one_hop(Timeline((
            (0.01, 0, "rate", 0.1), (0.03, 0, "rate", 1.0),
        )))
        base = duplex.ab.profile
        sim.run(until=0.015)
        assert duplex.ab.profile.rate_at(sim.now) == pytest.approx(8e5)
        assert driver.faults_applied == 1
        sim.run(until=0.05)
        assert duplex.ab.profile is base

    def test_loss_burst_sets_and_restores_plr(self):
        sim, sink, duplex, _ = _one_hop(Timeline((
            (0.01, 0, "loss", 0.5), (0.03, 0, "loss", None),
        )))
        sim.run(until=0.015)
        assert duplex.ab.plr == duplex.ba.plr == 0.5
        sim.run(until=0.05)
        assert duplex.ab.plr == 0.0

    def test_correlated_loss_attaches_and_detaches(self):
        sim, sink, duplex, _ = _one_hop(Timeline(
            CorrelatedLoss(0.01, 0, duration_s=0.02)
        ))
        sim.run(until=0.015)
        assert isinstance(duplex.ab.loss_model, GilbertElliottLoss)
        assert isinstance(duplex.ba.loss_model, GilbertElliottLoss)
        sim.run(until=0.05)
        assert duplex.ab.loss_model is None

    def test_duplex_registration_targets_both_directions(self):
        sim, sink, duplex, _ = _one_hop(Timeline(LinkDown(0.0, 0, 0.01)))
        sim.run(until=0.005)
        assert not duplex.ab.up and not duplex.ba.up
        sim.run(until=0.02)
        assert duplex.ab.up and duplex.ba.up

    def test_unknown_targets_fail_at_arm_time(self):
        with pytest.raises(ValueError, match="hop 5 at t=0.0; the path has 1"):
            _one_hop(Timeline(LinkDown(0.0, 5)))
        with pytest.raises(ValueError, match="node 'nope'.* has s$"):
            _one_hop(Timeline(NodeCrash(0.0, "nope")))

    def test_node_crash_drops_traffic_until_restart(self):
        sim, sink, duplex, driver = _one_hop(Timeline(
            NodeCrash(0.01, "s", restart_after_s=0.02)
        ))
        _send_at(sim, duplex.ab, 0.0, 0.02, 0.05)
        sim.run()
        assert len(sink.received) == 2
        assert sink.packets_dropped_crashed == 1
        assert [m for _, m in driver.log] == ["s CRASHED", "s restarted"]

    def test_faults_applied_counts_faults_not_log_lines(self):
        """A flap is ``cycles`` faults and a crash+restart is one, however
        many lines their restores add to the log."""
        sim, sink, duplex, driver = _one_hop(Timeline(
            LinkFlap(0.01, 0, down_s=0.01, up_s=0.01, cycles=3)
            + NodeCrash(0.2, "s", restart_after_s=0.01)
        ))
        sim.run(until=0.1)
        assert driver.faults_applied == 3
        sim.run(until=0.3)
        assert driver.faults_applied == 3 + 1
        # Every fault logs its restore too; the flap's closing up adds one.
        assert len(driver.log) == 2 * driver.faults_applied + 1

    def test_signal_entries_reach_on_signal_unlogged(self):
        sim = Simulator()
        duplex = DuplexLink(sim, SinkNode(sim, "a"), SinkNode(sim, "b"))
        heard = []
        driver = TimelineDriver(
            sim, SimpleNamespace(links=[duplex]),
            Timeline(((1.0, "p", "signal", "PathSwitch"),
                      (1.0, "p", "signal", "GsReattach"))),
            on_signal=lambda kind: heard.append((sim.now, kind)),
        )
        sim.run()
        assert heard == [(1.0, "PathSwitch"), (1.0, "GsReattach")]
        assert driver.log == [] and driver.faults_applied == 0


class TestMidnodeCrash:
    def _path(self, total_bytes=2_000_000):
        sim = Simulator()
        rng = RngRegistry(0)
        hops = uniform_chain_specs(4, rate_bps=20e6, delay_s=0.005, plr=0.0)
        path = build_leotp_path(
            sim, rng, hops, config=LeotpConfig(), total_bytes=total_bytes
        )
        return sim, path

    def test_crash_wipes_cache_and_flow_state(self):
        sim, path = self._path()
        mid = path.midnodes[1]
        sim.run(until=1.0)
        assert mid._flows and mid.cache.stored_bytes > 0
        mid.crash()
        assert mid.crashed
        assert not mid._flows
        assert mid.cache.stored_bytes == 0
        assert mid.stats.crashes == 1

    def test_crash_empties_a_pooled_cache_in_place(self):
        """A Midnode on a flow pool draws its cache from the shared pool:
        a crash takes exactly its bytes out of the pool total and the
        ledger, and the emptied cache is still the member the pool counts
        stores and evictions of."""
        from repro.workload import MemoryBudget, SharedCachePool

        sim, path = self._path()
        budget = MemoryBudget(1 << 20)
        pool = SharedCachePool(64 << 10, [1, 1], budget=budget)
        mid = path.midnodes[1]
        mid.cache = pool.members[0]
        pool.members[1].store("g", ByteRange(0, 1000), 0.0, writer="g")
        mid.cache.store("f", ByteRange(0, 3000), 0.0, writer="f")
        assert pool.stored_bytes == 4000
        mid.crash()
        assert mid.cache is pool.members[0] and mid.cache.stored_bytes == 0
        assert pool.stored_bytes == 1000 == budget.account("cache")
        mid.cache.store("f", ByteRange(0, 500), 1.0, writer="f")
        assert pool.stored_bytes == 1500 == budget.account("cache")
        # Past the member's 32 KiB share: the pool sees its evictions.
        mid.cache.store("f", ByteRange(4096, 4096 * 10), 1.0, writer="f")
        assert pool.evictions == mid.cache.stats.evictions > 0
        assert pool.stored_bytes == 1000 + mid.cache.stored_bytes

    def test_transfer_survives_crash_restart(self):
        sim, path = self._path()
        mid = path.midnodes[1]
        sim.schedule_at(0.4, mid.crash)
        sim.schedule_at(0.6, mid.restart)
        sim.run(until=20.0)
        assert path.consumer.finished
        assert path.consumer.bytes_received == 2_000_000


class TestResendSuppressor:
    def test_suppresses_within_window(self):
        sim = Simulator()
        sup = ResendSuppressor(sim)
        rng = ByteRange(0, 1400)
        assert not sup.suppressed(rng, 0.15)  # never sent
        sup.record(rng)
        assert sup.suppressed(rng, 0.15)
        sim.run(until=0.2)
        assert not sup.suppressed(rng, 0.15)  # window expired

    def test_ranges_past_4_gib_are_refused(self):
        """The guard keys a range by ``start << 32 | end``, one-to-one only
        while ``end`` fits in 32 bits: a range ending at or past 4 GiB is
        refused by name instead of aliasing another range's entry."""
        sim = Simulator()
        sup = ResendSuppressor(sim)
        last = ByteRange(2**32 - 1400, 2**32 - 1)
        sup.record(last)
        assert sup.suppressed(last, 0.15)
        for rng in (ByteRange(2**32 - 1400, 2**32), ByteRange(2**32, 2**32 + 1)):
            with pytest.raises(ValueError, match="4 GiB"):
                sup.record(rng)

    def test_window_is_given_per_lookup(self):
        sim = Simulator()
        sup = ResendSuppressor(sim)
        rng = ByteRange(0, 1400)
        sup.record(rng)
        sim.run(until=0.2)
        assert sup.suppressed(rng, 1.0)
        assert not sup.suppressed(rng, 0.1)

    def test_a_block_piece_of_a_packet_just_sent_is_suppressed(self):
        """A Midnode records a forwarded packet under its full range but
        re-serves one straddling a 4 KiB block edge as one piece per
        block: each piece matches the departure that contains it."""
        sim = Simulator()
        sup = ResendSuppressor(sim)
        sup.record(ByteRange(2800, 4200))  # the packet, as it left
        sup.record(ByteRange(4200, 5600))
        assert sup.suppressed(ByteRange(2800, 4096), 0.15)  # block-0 piece
        assert sup.suppressed(ByteRange(4096, 4200), 0.15)  # block-1 piece
        assert not sup.suppressed(ByteRange(4096, 4300), 0.15)  # spans two
        assert not sup.suppressed(ByteRange(1400, 2800), 0.15)  # never left


class TestShrResync:
    def test_fresh_detector_adopts_first_offset(self):
        """A detector (re)created mid-flow must not treat the entire
        already-delivered prefix as one giant hole (crash/restart)."""
        shr = SeqHoleDetector()
        actions = shr.on_packet(ByteRange(10_000_000, 10_001_400))
        assert actions.announce == [] and actions.request == []
        assert shr.last_byte == 10_001_400

    def test_gaps_after_priming_are_still_detected(self):
        shr = SeqHoleDetector(disorder_threshold=1)
        shr.on_packet(ByteRange(1000, 2000))
        actions = shr.on_packet(ByteRange(3000, 4000))
        assert actions.announce == [ByteRange(2000, 3000)]


def _mutate(monkeypatch, cls, method: str, old: str, new: str) -> None:
    """Replace ``cls.method`` by its own source with ``old`` made ``new``
    (compiled in the defining module's namespace) for one test."""
    source = textwrap.dedent(inspect.getsource(getattr(cls, method)))
    assert source.count(old) == 1, f"{method} no longer contains {old!r}"
    namespace: dict = {}
    exec(compile(source.replace(old, new), f"<mutant {method}>", "exec"),
         vars(sys.modules[cls.__module__]), namespace)
    monkeypatch.setattr(cls, method, namespace[method])


#: One seeded bug per rule: (class, method, text, replacement).  The
#: byte-exact rule has one per harness — a chain's Producer stops at the
#: flow's end, a pool's serves whatever is asked.
_MUTANTS = {
    # The Consumer never requests the flow's last segment.
    "byte-exact-delivery": (
        Consumer, "_fill_window", "self._next_offset < total)",
        "self._next_offset + mss < total)",
    ),
    # Its last Interest is not cut at the flow's end, so the bytes past
    # it are counted as the flow's.
    "byte-exact-delivery/pool": (
        Consumer, "_fill_window", "end = total\n", "pass\n",
    ),
    # Each delivery hands the app the whole prefix again.
    "no-duplicate-delivery": (
        Consumer, "on_receive", "delta = new_next - self._delivered_next",
        "delta = new_next",
    ),
    # The window cap is lifted: every Interest leaves at once.
    "bounded-requester-window": (
        Consumer, "_fill_window",
        "self._outstanding_bytes + mss <= cap", "True",
    ),
    # A satisfied Interest frees its window space twice.
    "bounded-responder-buffers": (
        Consumer, "_complete_interest",
        "self._outstanding_bytes -= rng.end - rng.start",
        "self._outstanding_bytes -= 2 * (rng.end - rng.start)",
    ),
    # The RTO clamp is gone: a 40 ms chain's RTO sinks below the floor.
    "rto-sanity": (
        RtoEstimator, "on_sample",
        "min(max(raw, self.min_rto_s), self.max_rto_s)", "raw",
    ),
    # The window's cap is dropped from the clamp.
    "cwnd-sanity": (
        HopRateController, "_tick", "float(cfg.max_cwnd_bytes)",
        "float('inf')",
    ),
}

#: Flow size and run length per rule: sub-second runs, sized so the
#: mutant's excursion passes its limit (9 MiB > the 8 MiB window limit).
_SIZE = {"bounded-requester-window": 9 << 20, "bounded-responder-buffers": 3 << 20}
_DURATION = {"bounded-requester-window": 0.05}
_RULES = [rule for rule in _MUTANTS if "/" not in rule]
#: The cwnd mutant runs under a 20 kB cap, which slow start outgrows.
_SMALL_CAP = LeotpConfig(max_cwnd_bytes=20_000)


def _hops():
    return uniform_chain_specs(4, rate_bps=20e6, delay_s=0.005)


class TestCheckFlow:
    def test_clean_run_is_green(self):
        sim = Simulator()
        rng = RngRegistry(0)
        hops = uniform_chain_specs(4, rate_bps=20e6, delay_s=0.005, plr=0.01)
        path = build_leotp_path(
            sim, rng, hops, config=LeotpConfig(), total_bytes=1_000_000
        )
        delivered = []
        path.consumer.deliver = lambda nbytes, ts: delivered.append(nbytes)
        sim.run(until=10.0)
        assert sum(delivered) == 1_000_000
        assert check_flow(
            path.consumer, [path.producer, *path.midnodes],
            app_bytes=sum(delivered), size=1_000_000,
        ) == {}
        # The extremes the rules read were recorded along the way.
        assert path.consumer.rto.lowest_rto_s >= LeotpConfig().tr_min_rto_s
        assert 0 < path.consumer.cc.peak_cwnd_bytes <= LeotpConfig().max_cwnd_bytes
        assert path.consumer.cc.bad_cwnd_bytes is None

    @pytest.mark.parametrize("rule", _RULES)
    def test_run_chaos_names_each_mutant(self, monkeypatch, rule):
        _mutate(monkeypatch, *_MUTANTS[rule])
        spec = PathSpec(
            hops=_hops(), total_bytes=_SIZE.get(rule, 300_000),
            config=_SMALL_CAP if rule == "cwnd-sanity" else None,
        )
        result = run_chaos(
            Timeline(), partial(build_path, spec=spec),
            duration_s=_DURATION.get(rule, 1.0),
        )
        assert rule in result.violations, result.violations
        assert not result.invariants_ok
        with pytest.raises(InvariantViolation, match=rule):
            result.assert_ok()

    @pytest.mark.parametrize("rule", _RULES)
    def test_a_pool_names_the_flow_rule_and_time(self, monkeypatch, rule):
        _mutate(monkeypatch, *_MUTANTS.get(f"{rule}/pool", _MUTANTS[rule]))
        sim = Simulator()
        size = _SIZE.get(rule, 300_000)
        pool = FlowPool(
            sim, RngRegistry(0), hops=_hops(),
            spec=WorkloadSpec(
                arrival="trace", trace=((0.0, size),), n_flows=1,
                max_size_bytes=size,
            ),
        )
        if rule == "cwnd-sanity":
            pool.config = _SMALL_CAP
            for mid in pool.midnodes:
                mid.config = _SMALL_CAP
        with pytest.raises(InvariantViolation) as caught:
            sim.run(until=_DURATION.get(rule, 1.0))
            pool.finalize()  # an unfinished flow is checked here
        assert re.match(rf"flow w00000 at t=[0-9.]+s: .*{rule}: ", str(caught.value))

    def test_a_shard_wraps_a_violation_in_shard_error(self, monkeypatch):
        _mutate(monkeypatch, *_MUTANTS["no-duplicate-delivery"])
        plan = ShardPlan(n_shards=1, arrivals_per_shard=2, drain_s=1.0)
        with pytest.raises(ShardError, match="shard 0 failed .*no-duplicate-delivery"):
            run_sharded(plan, jobs=1)


class TestRecoveryReport:
    def _recorder(self, sim, deliveries):
        recorder = FlowRecorder(sim)
        for t, nbytes in deliveries:
            sim.schedule_at(t, recorder.on_delivery, nbytes, 0.01)
        sim.run()
        return recorder

    def test_goodput_ratio_and_ttfb(self):
        sim = Simulator()
        # 1000 B every 0.1 s, a 2 s gap for the fault, then recovery at
        # the same rate starting 0.5 s after the fault clears.
        pre = [(0.1 * i, 1000) for i in range(50)]          # up to t=4.9
        post = [(7.5 + 0.1 * i, 1000) for i in range(50)]   # from t=7.5
        recorder = self._recorder(sim, pre + post)
        report = recovery_report(
            recorder, 5.0, 7.0, window_s=5.0, recovery_window_s=1.0
        )
        assert report.pre_goodput_bps == pytest.approx(80_000, rel=0.05)
        assert report.ttfb_after_fault_s == pytest.approx(0.5)
        assert report.goodput_ratio == pytest.approx(0.9, abs=0.2)
        assert report.recovered
        assert report.time_to_recovery_s > 0.5

    def test_no_recovery_reported_when_flow_dies(self):
        sim = Simulator()
        recorder = self._recorder(sim, [(0.1 * i, 1000) for i in range(50)])
        report = recovery_report(recorder, 5.0, 7.0)
        assert report.post_goodput_bps == 0.0
        assert report.ttfb_after_fault_s is None
        assert not report.recovered

    def test_amplification(self):
        sim = Simulator()
        recorder = self._recorder(sim, [(0.0, 1000), (1.0, 1000)])
        report = recovery_report(recorder, 0.5, 0.6, wire_bytes_sent=3000)
        assert report.retx_amplification == pytest.approx(1.5)

    def test_validation(self):
        sim = Simulator()
        recorder = FlowRecorder(sim)
        with pytest.raises(ValueError):
            recovery_report(recorder, 2.0, 1.0)
        with pytest.raises(ValueError):
            recovery_report(recorder, 1.0, 2.0, window_s=0.0)
