"""Diffing route schedules straight into timelines.

This is the churn engine's core: consecutive :class:`PathSnapshot`\\ s of
a :class:`PathSchedule` are compared node-by-node and edge-by-edge, and
:func:`churn_timeline` writes every difference as entries of the one
:class:`~repro.faults.timeline.Timeline` a chain runs under — handover
signals, outages on the hops whose real edges changed, and delays that
track the route (LRSIM builds its dynamic forwarding state the same way,
straight from diffs of per-slice route tables).  The runs read their
handover census back off the timeline's signals
(:func:`signal_times`, :func:`handover_times`).

Determinism discipline: signals are sorted by ``(time, kind)`` and
outages by hop and time, so the same schedule always yields the same
timeline regardless of hash seeds.
"""

from __future__ import annotations

from typing import Iterable

from repro.constellation.emulation import route_entries
from repro.constellation.routing import PathSchedule, PathSnapshot
from repro.faults.timeline import LinkDown, Timeline

#: Handover blackout per removed edge, matching the paper's sub-100 ms
#: GSL re-acquisition window (Sec. II-A).
DEFAULT_OUTAGE_S = 0.08

#: Signal kinds that constitute a *handover* (a route disruption the
#: transport must ride out), as opposed to a re-attachment or a restore.
HANDOVER_KINDS = ("PathSwitch", "RouteLost")


def _edges(snapshot: PathSnapshot) -> dict[frozenset, int]:
    """Map of undirected edge -> its hop index in one snapshot's route."""
    nodes = snapshot.nodes
    return {frozenset(edge): i for i, edge in enumerate(zip(nodes, nodes[1:]))}


def compress_schedule(schedule: PathSchedule, factor: float) -> PathSchedule:
    """Time-compress a schedule by ``factor`` (orbital minutes -> sim seconds).

    A LEO shell produces a handover every few tens of seconds per pair;
    simulating minutes of wall-orbit per run is wasteful when the claim
    under test is *recovery per handover*.  Compressing the snapshot
    timeline preserves the route sequence and geometry-derived delays
    while packing the full handover census into an affordable horizon —
    the same methodological move as the paper's accelerated handover
    interval in Sec. V-C.
    """
    if factor <= 0:
        raise ValueError("compression factor must be positive")
    snapshots = [
        PathSnapshot(
            time=s.time / factor,
            nodes=s.nodes,
            hop_distances_m=s.hop_distances_m,
            hop_is_gsl=s.hop_is_gsl,
        )
        for s in schedule.snapshots
    ]
    gaps = [(start / factor, end / factor) for start, end in schedule.gaps]
    return PathSchedule(schedule.gs_a, schedule.gs_b, snapshots, gaps)


def outage_entries(windows: Iterable[tuple[int, float, float]]) -> list[tuple]:
    """``up`` entries that take each ``(hop, start, end)`` window's hop
    down from ``start`` to ``end``.

    Windows on one hop that overlap or abut merge into one outage.
    Every ``up`` entry of ``False`` comes before every ``True``, so at an
    instant where one hop comes back and another goes down, the down
    applies first.
    """
    per_hop: dict[int, list[tuple[float, float]]] = {}
    for hop, start, end in windows:
        per_hop.setdefault(hop, []).append((start, end))
    downs, ups = [], []
    for hop in sorted(per_hop):
        merged: list[list[float]] = []
        for start, end in sorted(per_hop[hop]):
            if merged and start <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], end)
            else:
                merged.append([start, end])
        for start, end in merged:
            down, up = LinkDown(start, hop, end - start)
            downs.append(down)
            ups.append(up)
    return downs + ups


def churn_timeline(
    schedule: PathSchedule,
    n_hops: int,
    update_interval_s: float,
    pair: str,
) -> tuple[Timeline, int]:
    """One pair's churn on a chain of ``n_hops`` hops, as one timeline,
    and the number of real edges its route changes removed.

    A snapshot whose node-level route differs from the one before is a
    route change at its time; pure delay drift is not (the delay retunes
    follow it).  At each instant, in this order:

    * a ``signal`` entry targeted at ``pair`` per change a local link
      layer would report (the handover up-call, traced as a ``topology``
      record), sorted by kind: ``PathSwitch`` per route change,
      ``GsReattach`` per ground station whose serving satellite changed,
      ``RouteLost`` and ``RouteRestored`` at the ends of each gap;
    * the :func:`outage_entries`: the emulation carries a route on a
      fixed chain, so an edge at hop ``i`` of the old route that the new
      route lacks takes chain hop ``min(i, n_hops - 1)`` down for
      :data:`DEFAULT_OUTAGE_S` — endpoint GSLs land on the chain's edge
      hops, interior ISLs on interior hops — and a gap takes hop 0, the
      producer-side uplink, down for the whole gap (at least the
      blackout): one dead hop stops the whole path;
    * the delay retunes of
      :func:`~repro.constellation.emulation.route_entries` sampled every
      ``update_interval_s``.
    """
    if n_hops < 1:
        raise ValueError("need at least one hop in the emulated chain")
    signals: list[tuple[float, str]] = []
    windows: list[tuple[int, float, float]] = []
    removed = 0
    snapshots = schedule.snapshots
    for prev, cur in zip(snapshots[:-1], snapshots[1:]):
        if prev.nodes == cur.nodes:
            continue
        t = cur.time
        signals.append((t, "PathSwitch"))
        # nodes[0]/nodes[-1] are the ground stations; nodes[1]/nodes[-2]
        # their serving satellites.
        signals += [(t, "GsReattach") for i in (1, -2)
                    if prev.nodes[i] != cur.nodes[i]]
        kept = _edges(cur)
        for edge, hop in _edges(prev).items():
            if edge not in kept:
                removed += 1
                windows.append((min(hop, n_hops - 1), t, t + DEFAULT_OUTAGE_S))
    for start, end in schedule.gaps:
        signals += [(start, "RouteLost"), (end, "RouteRestored")]
        windows.append((0, start, start + max(end - start, DEFAULT_OUTAGE_S)))
    return Timeline((
        *((t, pair, "signal", kind) for t, kind in sorted(signals)),
        *outage_entries(windows),
        *route_entries(schedule, n_hops, update_interval_s,
                       flush_on_change=False),
    )), removed


def signal_times(timeline: Timeline, *kinds: str) -> list[float]:
    """Sorted times of ``timeline``'s signals of the given kinds."""
    return [t for t, _, field, value in timeline.entries
            if field == "signal" and value in kinds]


def handover_times(timeline: Timeline) -> list[float]:
    """Sorted, de-duplicated times of ``timeline``'s handover signals."""
    return sorted(set(signal_times(timeline, *HANDOVER_KINDS)))
