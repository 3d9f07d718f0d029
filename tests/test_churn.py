"""Tests for the churn engine: route diffs into timelines, metrics.

The engine's contract is determinism — the same :class:`PathSchedule`
must always yield the same timeline — plus a faithful mapping of
geometry changes onto the chaos machinery.  The end-to-end test runs a
real LEOTP flow under a synthetic handover sequence and requires green
invariants.
"""

from __future__ import annotations

import random
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.churn import (
    DEFAULT_OUTAGE_S,
    churn_timeline,
    compress_schedule,
    handover_stats,
    handover_times,
    outage_entries,
    per_handover_reports,
    signal_times,
)
from repro.constellation.routing import PathSchedule, PathSnapshot
from repro.netsim.node import SinkNode
from repro.netsim.topology import build_chain, uniform_chain_specs
from repro.netsim.trace import FlowRecorder
from repro.simcore import RngRegistry, Simulator


def snap(t, nodes, gsl_ends=True):
    """A PathSnapshot with uniform 1000 km hops; endpoints GSL."""
    n_hops = len(nodes) - 1
    is_gsl = tuple(
        gsl_ends and (i == 0 or i == n_hops - 1) for i in range(n_hops)
    )
    return PathSnapshot(
        time=t,
        nodes=tuple(nodes),
        hop_distances_m=(1_000_000.0,) * n_hops,
        hop_is_gsl=is_gsl,
    )


A = ["gs:BJ", "sat-0-1", "sat-0-2", "gs:PR"]
B = ["gs:BJ", "sat-0-9", "sat-0-2", "gs:PR"]  # producer-side reattach
C = ["gs:BJ", "sat-0-9", "sat-5-5", "gs:PR"]  # consumer-side reattach


def make_schedule(gaps=()):
    return PathSchedule(
        "BJ", "PR",
        [snap(0.0, A), snap(2.0, A), snap(4.0, B), snap(6.0, C)],
        list(gaps),
    )


def timeline_of(snapshots, gaps=(), n_hops=3, interval_s=2.0, pair="p"):
    """The churn timeline of a schedule of ``snapshots`` and ``gaps``."""
    schedule = PathSchedule("BJ", "PR", list(snapshots), list(gaps))
    return churn_timeline(schedule, n_hops, interval_s, pair)[0]


def signals(timeline):
    """``(t, kind)`` of each signal entry, in timeline order."""
    return [(t, kind) for t, _, field, kind in timeline.entries
            if field == "signal"]


def outages(timeline):
    """``(hop, start, duration)`` of each outage on the timeline."""
    started, out = {}, []
    for t, hop, field, up in timeline.entries:
        if field == "up":
            if up:
                start = started.pop(hop)
                out.append((hop, start, pytest.approx(t - start)))
            else:
                started[hop] = t
    return sorted(out, key=lambda o: o[:2])


class TestTopologyEvents:
    """The signal entries: one per change a link layer reports."""

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            timeline_of([snap(0.0, A)], gaps=[(-0.1, 1.0)])

    def test_kind_property(self):
        kinds = {kind for _, kind in signals(
            churn_timeline(make_schedule(gaps=[(8.0, 9.5)]), 3, 2.0, "p")[0]
        )}
        assert kinds == {"PathSwitch", "GsReattach", "RouteLost",
                         "RouteRestored"}

    def test_stream_is_totally_ordered(self):
        # Both ends re-attach at the instant a gap opens: the signals at
        # one instant sort by kind, ahead of that instant's outages.
        timeline = timeline_of([snap(0.0, A), snap(4.0, C)],
                               gaps=[(6.0, 7.0), (4.0, 5.0)])
        assert signals(timeline) == [
            (4.0, "GsReattach"), (4.0, "GsReattach"), (4.0, "PathSwitch"),
            (4.0, "RouteLost"), (5.0, "RouteRestored"),
            (6.0, "RouteLost"), (7.0, "RouteRestored"),
        ]
        at_4 = [field for t, _, field, _ in timeline.entries if t == 4.0]
        assert at_4[:4] == ["signal"] * 4 and "signal" not in at_4[4:]

    def test_of_kind_and_counts(self):
        timeline, removed = churn_timeline(make_schedule(), 3, 2.0, "p")
        assert removed == 4  # two edges leave the route at each change
        assert len(signal_times(timeline, "PathSwitch")) == 2
        assert len(signal_times(timeline, "GsReattach", "RouteLost")) == 2

    def test_handover_times_deduplicated(self):
        # A route change and a gap at 4.0 are one handover; re-attaches
        # and restores are not handovers.
        timeline, _ = churn_timeline(
            make_schedule(gaps=[(4.0, 4.5)]), 3, 2.0, "p"
        )
        assert handover_times(timeline) == [4.0, 6.0]


class TestDiffSnapshots:
    """Consecutive snapshots diffed into signals and outages."""

    def test_identical_routes_yield_no_events(self):
        timeline, removed = churn_timeline(
            PathSchedule("BJ", "PR", [snap(0.0, A), snap(2.0, A)]),
            3, 2.0, "p",
        )
        assert signals(timeline) == [] and outages(timeline) == []
        assert removed == 0

    def test_delay_drift_alone_is_not_an_event(self):
        moved = replace(snap(2.0, A), hop_distances_m=(2_000_000.0,) * 3)
        timeline = timeline_of([snap(0.0, A), moved])
        assert signals(timeline) == [] and outages(timeline) == []
        # The delay retunes follow the drift instead.
        assert {t for t, _, field, _ in timeline.entries
                if field == "delay_s"} == {0.0, 2.0}

    def test_single_sat_swap(self):
        timeline, removed = churn_timeline(
            PathSchedule("BJ", "PR", [snap(0.0, A), snap(2.0, B)]),
            3, 2.0, "p",
        )
        assert signals(timeline) == [(2.0, "GsReattach"), (2.0, "PathSwitch")]
        assert removed == 2
        assert outages(timeline) == [
            (0, 2.0, DEFAULT_OUTAGE_S), (1, 2.0, DEFAULT_OUTAGE_S),
        ]

    def test_consumer_side_reattach(self):
        # B -> C re-attaches the consumer end only; A -> C both ends.
        consumer = timeline_of([snap(0.0, B), snap(2.0, C)])
        assert signal_times(consumer, "GsReattach") == [2.0]
        assert [hop for hop, _, _ in outages(consumer)] == [1, 2]
        both = timeline_of([snap(0.0, A), snap(2.0, C)])
        assert signal_times(both, "GsReattach") == [2.0, 2.0]

    def test_hop_index_semantics(self):
        # A removed edge takes down its hop in the OLD route: A -> D
        # removes only gs:BJ--sat-0-1, hop 0 of A; the edges D adds at
        # its hops 0-2 are no outage.
        D = ["gs:BJ", "sat-0-7", "sat-0-8", "sat-0-1", "sat-0-2", "gs:PR"]
        timeline = timeline_of([snap(0.0, A), snap(2.0, D)], n_hops=5)
        assert [hop for hop, _, _ in outages(timeline)] == [0]

    def test_events_timestamped_at_new_snapshot(self):
        timeline = timeline_of([snap(0.0, A), snap(2.0, A), snap(5.0, B)])
        assert {t for t, _ in signals(timeline)} == {5.0}
        assert {start for _, start, _ in outages(timeline)} == {5.0}


class TestEventsFromSchedule:
    """A whole schedule's timeline."""

    def test_stream_covers_all_transitions(self):
        timeline, _ = churn_timeline(make_schedule(), 3, 2.0, "BJ-PR")
        assert signal_times(timeline, "PathSwitch") == [4.0, 6.0]
        assert signal_times(timeline, "GsReattach") == [4.0, 6.0]
        assert handover_times(timeline) == [4.0, 6.0]

    def test_gaps_become_route_lost_restored(self):
        timeline, _ = churn_timeline(
            make_schedule(gaps=[(8.0, 9.5)]), 3, 2.0, "p"
        )
        assert signal_times(timeline, "RouteLost") == [8.0]
        assert signal_times(timeline, "RouteRestored") == [9.5]
        assert 8.0 in handover_times(timeline)

    def test_pair_override(self):
        timeline, _ = churn_timeline(make_schedule(), 3, 2.0, "custom")
        assert {target for _, target, field, _ in timeline.entries
                if field == "signal"} == {"custom"}

    def test_deterministic(self):
        a = churn_timeline(make_schedule(gaps=[(8.0, 9.0)]), 3, 2.0, "p")
        b = churn_timeline(make_schedule(gaps=[(8.0, 9.0)]), 3, 2.0, "p")
        assert a == b  # a Timeline compares by value


class TestCompressSchedule:
    def test_times_and_gaps_divided(self):
        compressed = compress_schedule(
            make_schedule(gaps=[(8.0, 9.5)]), 4.0
        )
        assert [s.time for s in compressed.snapshots] == [0.0, 0.5, 1.0, 1.5]
        assert compressed.gaps == [(2.0, 2.375)]

    def test_geometry_preserved(self):
        original = make_schedule()
        compressed = compress_schedule(original, 4.0)
        for a, b in zip(original.snapshots, compressed.snapshots):
            assert a.nodes == b.nodes
            assert a.hop_distances_m == b.hop_distances_m

    def test_event_sequence_preserved(self):
        original, _ = churn_timeline(make_schedule(), 3, 2.0, "p")
        compressed, _ = churn_timeline(
            compress_schedule(make_schedule(), 4.0), 3, 0.5, "p"
        )
        assert signals(compressed) == [
            (t / 4.0, kind) for t, kind in signals(original)
        ]

    def test_validation(self):
        with pytest.raises(ValueError):
            compress_schedule(make_schedule(), 0.0)


class TestFaultAdapter:
    """The outages a route change puts on the emulated chain."""

    def test_removed_links_become_downs(self):
        timeline, _ = churn_timeline(make_schedule(), 3, 2.0, "p")
        assert outages(timeline) == [
            (0, 4.0, DEFAULT_OUTAGE_S), (1, 4.0, DEFAULT_OUTAGE_S),
            (1, 6.0, DEFAULT_OUTAGE_S), (2, 6.0, DEFAULT_OUTAGE_S),
        ]

    def test_hop_index_clamped_to_chain(self):
        # Edges at real hops 3 and 4 land on the last hop of a 3-hop
        # chain, as one outage.
        route = ["gs:BJ", "s1", "s2", "s3", "s4", "gs:PR"]
        moved = [*route[:4], "s9", "gs:PR"]
        timeline = timeline_of([snap(0.0, route), snap(2.0, moved)])
        assert outages(timeline) == [(2, 2.0, DEFAULT_OUTAGE_S)]

    def test_same_hop_events_coalesce_and_validate(self):
        # On a one-hop chain every removed edge lands on hop 0: the two
        # at 1.0 and the two at 1.04 merge into a single outage, so the
        # timeline passes validation.
        timeline = timeline_of(
            [snap(0.0, A), snap(1.0, B), snap(1.04, C)],
            n_hops=1, interval_s=0.5,
        )
        assert outages(timeline) == [(0, 1.0, 0.12)]

    def test_route_lost_blacks_out_uplink(self):
        timeline = timeline_of([snap(0.0, A)], gaps=[(2.0, 3.5)], n_hops=4)
        assert outages(timeline) == [(0, 2.0, 1.5)]

    def test_short_route_loss_floored_at_outage(self):
        timeline = timeline_of([snap(0.0, A)], gaps=[(2.0, 2.001)], n_hops=4)
        assert outages(timeline) == [(0, 2.0, DEFAULT_OUTAGE_S)]

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one hop"):
            churn_timeline(make_schedule(), 0, 2.0, "p")

    def test_deterministic(self):
        # Window order does not matter, and every down comes first.
        windows = [(1, 2.0, 2.08), (0, 1.0, 1.5), (0, 1.2, 1.3), (2, 0.5, 1.0)]
        entries = outage_entries(windows)
        random.Random(0).shuffle(windows)
        assert outage_entries(windows) == entries
        assert [up for *_, up in entries] == [False] * 3 + [True] * 3

    def test_churn_timeline_applies_signals_outages_then_delays(self):
        longer = replace(snap(4.0, B), hop_distances_m=(2_000_000.0,) * 3)
        schedule = PathSchedule("BJ", "PR", [snap(0.0, A), longer])
        timeline, _ = churn_timeline(schedule, 3, 2.0, "p")
        at_4 = [(field, value) for t, _, field, value in timeline.entries
                if t == 4.0]
        fields = [field for field, _ in at_4]
        assert set(fields) == {"signal", "up", "delay_s"}
        assert fields == sorted(fields, key=["signal", "up", "delay_s"].index)
        assert ("signal", "PathSwitch") in at_4
        assert ("signal", "GsReattach") in at_4
        assert ("up", False) in at_4


class TestRouteLossAbort:
    """A gap longer than NO_ROUTE_ABORT_S aborts the pool's live flows."""

    def _aborts(self, gap_s):
        from repro.experiments.churn_study import arm_pool_churn

        sim = Simulator()
        nodes = [SinkNode(sim, f"n{i}") for i in range(4)]
        pool = SimpleNamespace(links=build_chain(
            sim, nodes, uniform_chain_specs(3), RngRegistry(0)
        ), aborts=[])
        pool.abort_live = lambda reason: pool.aborts.append((sim.now, reason))
        timeline = timeline_of([snap(0.0, A)], gaps=[(1.0, 1.0 + gap_s)])
        arm_pool_churn(sim, RngRegistry(0), pool, timeline)
        sim.run()
        return pool.aborts

    def test_long_gap_aborts_once(self):
        from repro.experiments.churn_study import NO_ROUTE_ABORT_S

        assert self._aborts(0.6) == [
            (pytest.approx(1.0 + NO_ROUTE_ABORT_S), "no_route")
        ]

    def test_short_gap_aborts_none(self):
        assert self._aborts(0.3) == []


class TestPerHandoverMetrics:
    def _recorder(self, sim, deliveries):
        recorder = FlowRecorder(sim)
        for t, nbytes in deliveries:
            sim.schedule_at(t, recorder.on_delivery, nbytes, 0.01)
        sim.run()
        return recorder

    def test_one_report_per_handover(self):
        sim = Simulator()
        deliveries = [(0.05 * i, 1000) for i in range(100)]  # up to 4.95 s
        recorder = self._recorder(sim, deliveries)
        reports = per_handover_reports(
            recorder, [1.0, 2.0, 3.0], outage_s=0.08, horizon_s=5.0
        )
        assert len(reports) == 3
        assert all(r.recovered for r in reports)

    def test_windows_clamped_between_close_handovers(self):
        # Two handovers 150 ms apart: the default 1 s windows would
        # bleed across; the clamp must keep every report constructible.
        sim = Simulator()
        recorder = self._recorder(sim, [(0.05 * i, 1000) for i in range(60)])
        reports = per_handover_reports(
            recorder, [1.0, 1.15], outage_s=0.08, horizon_s=3.0
        )
        assert len(reports) == 2

    def test_unrecovered_handover_detected(self):
        sim = Simulator()
        # Deliveries stop at t=1: the handover at 1.0 never recovers.
        recorder = self._recorder(
            sim, [(0.05 * i, 1000) for i in range(20)]
        )
        reports = per_handover_reports(
            recorder, [1.0], outage_s=0.08, horizon_s=5.0
        )
        stats = handover_stats(reports)
        assert stats["handovers_measured"] == 1.0
        assert stats["unrecovered"] == 1.0

    def test_stats_aggregation(self):
        sim = Simulator()
        recorder = self._recorder(sim, [(0.05 * i, 1000) for i in range(100)])
        stats = handover_stats(per_handover_reports(
            recorder, [1.0, 3.0], outage_s=0.08, horizon_s=5.0
        ))
        assert stats["handovers_measured"] == 2.0
        assert stats["unrecovered"] == 0.0
        assert stats["recovery_max_ms"] >= stats["recovery_mean_ms"] > 0.0
        assert 0.0 <= stats["dip_depth_mean"] <= 1.0

    def test_empty_stats_are_zeros(self):
        stats = handover_stats([])
        assert stats["handovers_measured"] == 0.0
        assert stats["recovery_mean_ms"] == 0.0


class TestChurnEndToEnd:
    """A real LEOTP flow under a synthetic handover sequence."""

    def _run(self, seed=0):
        from functools import partial

        from repro.experiments.common import PathSpec, build_path
        from repro.faults import run_chaos

        timeline = timeline_of([
            snap(0.0, A), snap(2.0, B), snap(4.0, C), snap(6.0, A),
        ], interval_s=0.5)
        spec = PathSpec(
            hops=uniform_chain_specs(3, rate_bps=20e6, delay_s=0.005),
            total_bytes=1_500_000,
        )
        return handover_times(timeline), run_chaos(
            timeline, partial(build_path, spec=spec),
            duration_s=10.0, seed=seed,
        )

    def test_invariants_green_and_flow_completes(self):
        times, res = self._run()
        assert res.invariants_ok, res.violations
        assert res.completed
        # Every handover produced at least one applied fault.
        assert sum(1 for _, a in res.fault_log if "DOWN" in a) >= len(times)

    def test_per_handover_reports_from_real_run(self):
        times, res = self._run()
        stats = handover_stats(per_handover_reports(
            res.path.recorder, times,
            outage_s=DEFAULT_OUTAGE_S, horizon_s=10.0,
        ))
        assert stats["handovers_measured"] == 3.0
        assert stats["unrecovered"] == 0.0

    def test_deterministic_per_seed(self):
        _, a = self._run(seed=5)
        _, b = self._run(seed=5)
        assert a.path.recorder.total_bytes == b.path.recorder.total_bytes
        assert a.fault_log == b.fault_log


class TestChurnSummary:
    def test_renders_all_row_shapes(self):
        from repro.analysis.report import churn_summary

        rows = [
            {
                "pair": "BJ-PR", "hops": 8, "handovers": 5,
                "links_removed": 12, "gs_reattach": 3, "route_losses": 1,
                "protocol": "leotp", "goodput_mbps": 3.5,
                "invariants_ok": True, "invariant_violations": 0,
                "handovers_measured": 5.0, "unrecovered": 1.0,
                "recovery_mean_ms": 120.0, "recovery_max_ms": 400.0,
                "dip_depth_mean": 0.4,
            },
            {
                "pair": "BJ-PR", "hops": 8, "handovers": 5,
                "protocol": "bbr", "goodput_mbps": 2.1,
                "invariants_ok": False, "invariant_violations": 2,
                "handovers_measured": 5.0, "unrecovered": 0.0,
                "recovery_mean_ms": 300.0, "recovery_max_ms": 900.0,
                "dip_depth_mean": 0.6,
            },
            {
                "pair": "BJ-PR", "protocol": "leotp-pool",
                "arrivals": 10, "pool_completed": 9, "pool_aborted": 1,
                "aborted_no_route": 1, "budget_breaches": 0,
            },
        ]
        text = churn_summary(rows)
        assert "BJ-PR: 5 handovers over 8 hops" in text
        assert "1/5 handovers unrecovered" in text
        assert "2 INVARIANT VIOLATIONS" in text
        assert "9/10 flows completed" in text
        assert "1 no_route" in text
