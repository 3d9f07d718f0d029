"""Tests for the churn engine: events, diffing, timelines, metrics.

The engine's contract is determinism — the same :class:`PathSchedule`
must always yield the same event stream and the same timeline — plus a
faithful mapping of geometry changes onto the chaos machinery.  The end-to-end test runs a real LEOTP flow
under a synthetic handover sequence and requires green invariants.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.churn import (
    DEFAULT_OUTAGE_S,
    SIGNAL_KINDS,
    GsReattach,
    LinkAdded,
    LinkRemoved,
    PathSwitch,
    RouteLost,
    RouteRestored,
    TopologyEventStream,
    churn_timeline,
    compress_schedule,
    diff_snapshots,
    events_from_schedule,
    handover_stats,
    merge_streams,
    outage_entries,
    per_handover_reports,
)
from repro.constellation.routing import PathSchedule, PathSnapshot
from repro.faults import Timeline
from repro.netsim.trace import FlowRecorder
from repro.simcore import Simulator


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


class TestTopologyEvents:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            RouteLost(at_s=-0.1, pair="p", duration_s=1.0)

    def test_kind_property(self):
        assert LinkRemoved(at_s=0.0, pair="p").kind == "LinkRemoved"

    def test_stream_is_totally_ordered(self):
        e1 = RouteLost(at_s=2.0, pair="p", duration_s=1.0)
        e2 = LinkAdded(at_s=1.0, pair="p", a="x", b="y")
        e3 = LinkRemoved(at_s=1.0, pair="p", a="x", b="y")
        stream = TopologyEventStream([e1, e2, e3])
        # Same time sorts by kind name: LinkAdded < LinkRemoved.
        assert [e.kind for e in stream] == [
            "LinkAdded", "LinkRemoved", "RouteLost",
        ]

    def test_of_kind_and_counts(self):
        stream = TopologyEventStream([
            LinkAdded(at_s=0.0, pair="p"),
            LinkRemoved(at_s=0.0, pair="p"),
            LinkRemoved(at_s=1.0, pair="p"),
        ])
        assert len(stream.of_kind("LinkRemoved")) == 2
        assert stream.counts() == {"LinkAdded": 1, "LinkRemoved": 2}

    def test_handover_times_deduplicated(self):
        stream = TopologyEventStream([
            PathSwitch(at_s=1.0, pair="p"),
            RouteLost(at_s=1.0, pair="q", duration_s=0.5),
            PathSwitch(at_s=2.0, pair="p"),
            LinkAdded(at_s=3.0, pair="p"),  # not a handover kind
        ])
        assert stream.handover_times() == [1.0, 2.0]

    def test_merge_streams(self):
        s1 = TopologyEventStream([PathSwitch(at_s=2.0, pair="p")])
        s2 = TopologyEventStream([PathSwitch(at_s=1.0, pair="q")])
        merged = merge_streams(s1, s2)
        assert [e.at_s for e in merged] == [1.0, 2.0]
        assert merged.pairs == ["p", "q"]


class TestDiffSnapshots:
    def test_identical_routes_yield_no_events(self):
        assert diff_snapshots(snap(0.0, A), snap(2.0, A), "p") == []

    def test_delay_drift_alone_is_not_an_event(self):
        moved = PathSnapshot(
            time=2.0, nodes=tuple(A),
            hop_distances_m=(2_000_000.0,) * 3,
            hop_is_gsl=(True, False, True),
        )
        assert diff_snapshots(snap(0.0, A), moved, "p") == []

    def test_single_sat_swap(self):
        events = diff_snapshots(snap(0.0, A), snap(2.0, B), "p")
        kinds = [e.kind for e in events]
        assert kinds == [
            "LinkRemoved", "LinkRemoved", "LinkAdded", "LinkAdded",
            "PathSwitch", "GsReattach",
        ]
        removed = {(e.a, e.b) for e in events if e.kind == "LinkRemoved"}
        assert removed == {("gs:BJ", "sat-0-1"), ("sat-0-1", "sat-0-2")}
        switch = events[4]
        assert switch.changed_nodes == 1
        reattach = events[5]
        assert (reattach.station, reattach.side) == ("gs:BJ", "a")
        assert (reattach.old_sat, reattach.new_sat) == ("sat-0-1", "sat-0-9")

    def test_consumer_side_reattach(self):
        events = diff_snapshots(snap(0.0, B), snap(2.0, C), "p")
        reattaches = [e for e in events if e.kind == "GsReattach"]
        assert len(reattaches) == 1
        assert reattaches[0].side == "b"
        assert reattaches[0].station == "gs:PR"

    def test_hop_index_semantics(self):
        # Removed edges carry their index in the OLD route, added edges
        # in the NEW route — outage_entries maps each onto the chain.
        events = diff_snapshots(snap(0.0, A), snap(2.0, B), "p")
        removed = {
            (e.a, e.b): e.hop_index for e in events if e.kind == "LinkRemoved"
        }
        added = {
            (e.a, e.b): e.hop_index for e in events if e.kind == "LinkAdded"
        }
        assert removed[("gs:BJ", "sat-0-1")] == 0
        assert removed[("sat-0-1", "sat-0-2")] == 1
        assert added[("gs:BJ", "sat-0-9")] == 0

    def test_events_timestamped_at_new_snapshot(self):
        events = diff_snapshots(snap(0.0, A), snap(2.0, B), "p")
        assert {e.at_s for e in events} == {2.0}
        override = diff_snapshots(snap(0.0, A), snap(2.0, B), "p", at_s=7.0)
        assert {e.at_s for e in override} == {7.0}


def make_schedule(gaps=()):
    return PathSchedule(
        "BJ", "PR",
        [snap(0.0, A), snap(2.0, A), snap(4.0, B), snap(6.0, C)],
        list(gaps),
    )


class TestEventsFromSchedule:
    def test_stream_covers_all_transitions(self):
        stream = events_from_schedule(make_schedule())
        assert stream.counts()["PathSwitch"] == 2
        assert stream.counts()["GsReattach"] == 2
        assert stream.handover_times() == [4.0, 6.0]
        assert stream.pairs == ["BJ-PR"]

    def test_gaps_become_route_lost_restored(self):
        stream = events_from_schedule(make_schedule(gaps=[(8.0, 9.5)]))
        lost = stream.of_kind("RouteLost")
        assert len(lost) == 1
        assert lost[0].duration_s == pytest.approx(1.5)
        assert stream.of_kind("RouteRestored")[0].at_s == 9.5
        assert 8.0 in stream.handover_times()

    def test_pair_override(self):
        stream = events_from_schedule(make_schedule(), pair="custom")
        assert stream.pairs == ["custom"]

    def test_deterministic(self):
        a = list(events_from_schedule(make_schedule()))
        b = list(events_from_schedule(make_schedule()))
        assert a == b  # frozen dataclasses compare by value


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
        original = events_from_schedule(make_schedule())
        compressed = events_from_schedule(
            compress_schedule(make_schedule(), 4.0)
        )
        assert [e.kind for e in original] == [e.kind for e in compressed]

    def test_validation(self):
        with pytest.raises(ValueError):
            compress_schedule(make_schedule(), 0.0)


def _outages(stream, n_hops):
    """``(hop, start, duration)`` of each outage :func:`outage_entries`
    puts on an ``n_hops`` chain."""
    entries = outage_entries(stream, n_hops)
    half = len(entries) // 2
    assert [up for *_, up in entries] == [False] * half + [True] * half
    return [(down[1], down[0], up[0] - down[0])
            for down, up in zip(entries[:half], entries[half:])]


class TestFaultAdapter:
    def test_removed_links_become_downs(self):
        stream = events_from_schedule(make_schedule())
        outages = _outages(stream, 3)
        assert outages
        assert all(d == pytest.approx(DEFAULT_OUTAGE_S) for _, _, d in outages)
        assert {hop for hop, _, _ in outages} <= {0, 1, 2}

    def test_hop_index_clamped_to_chain(self):
        stream = TopologyEventStream([
            LinkRemoved(at_s=1.0, pair="p", a="x", b="y", hop_index=9),
        ])
        assert [hop for hop, _, _ in _outages(stream, 3)] == [2]

    def test_same_hop_events_coalesce_and_validate(self):
        # Two removals landing on one hop at the same instant (a full
        # handover swaps both edges of a satellite) must merge into a
        # single outage — and therefore pass timeline validation.
        stream = TopologyEventStream([
            LinkRemoved(at_s=1.0, pair="p", a="u", b="v", hop_index=0),
            LinkRemoved(at_s=1.0, pair="p", a="v", b="w", hop_index=0),
            LinkRemoved(at_s=1.04, pair="p", a="w", b="x", hop_index=0),
        ])
        (outage,) = _outages(stream, 4)
        assert outage == (0, 1.0, pytest.approx(0.12))
        Timeline(outage_entries(stream, 4))

    def test_route_lost_blacks_out_uplink(self):
        stream = TopologyEventStream([
            RouteLost(at_s=2.0, pair="p", duration_s=1.5),
        ])
        assert _outages(stream, 4) == [(0, 2.0, pytest.approx(1.5))]

    def test_short_route_loss_floored_at_outage(self):
        stream = TopologyEventStream([
            RouteLost(at_s=2.0, pair="p", duration_s=0.001),
        ])
        assert _outages(stream, 4)[0][2] == pytest.approx(DEFAULT_OUTAGE_S)

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one hop"):
            outage_entries(TopologyEventStream([]), 0)

    def test_deterministic(self):
        stream = events_from_schedule(make_schedule(gaps=[(8.0, 9.0)]))
        assert outage_entries(stream, 3) == outage_entries(stream, 3)

    def test_churn_timeline_applies_signals_outages_then_delays(self):
        longer = replace(snap(4.0, B), hop_distances_m=(2_000_000.0,) * 3)
        schedule = PathSchedule("BJ", "PR", [snap(0.0, A), longer])
        stream = events_from_schedule(schedule)
        timeline = churn_timeline(schedule, stream, 3, 2.0)
        at_4 = [(field, value) for t, _, field, value in timeline.entries
                if t == 4.0]
        fields = [field for field, _ in at_4]
        assert set(fields) == {"signal", "up", "delay_s"}
        assert fields == sorted(fields, key=["signal", "up", "delay_s"].index)
        assert ("signal", "PathSwitch") in at_4
        assert ("signal", "GsReattach") in at_4
        assert ("up", False) in at_4
        # Only the kinds a link layer reports are signalled.
        signalled = {value for _, _, field, value in timeline.entries
                     if field == "signal"}
        assert signalled <= set(SIGNAL_KINDS)


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
        from repro.netsim.topology import uniform_chain_specs

        schedule = PathSchedule("BJ", "PR", [
            snap(0.0, A), snap(2.0, B), snap(4.0, C), snap(6.0, A),
        ])
        stream = events_from_schedule(schedule)
        spec = PathSpec(
            hops=uniform_chain_specs(3, rate_bps=20e6, delay_s=0.005),
            total_bytes=1_500_000,
        )
        return stream, run_chaos(
            Timeline(outage_entries(stream, 3)), partial(build_path, spec=spec),
            duration_s=10.0, seed=seed,
        )

    def test_invariants_green_and_flow_completes(self):
        stream, res = self._run()
        assert res.invariants_ok, res.violations
        assert res.completed
        # Every handover in the stream produced at least one applied fault.
        assert sum(1 for _, a in res.fault_log if "DOWN" in a) >= len(
            stream.handover_times()
        )

    def test_per_handover_reports_from_real_run(self):
        stream, res = self._run()
        stats = handover_stats(per_handover_reports(
            res.path.recorder, stream.handover_times(),
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
