"""Diffing route schedules into topology event streams and timelines.

This is the churn engine's core: consecutive :class:`PathSnapshot`\\ s of
a :class:`PathSchedule` are compared edge-by-edge and node-by-node, and
every difference becomes a typed event (LRSIM generates its dynamic
forwarding state the same way — by diffing per-slice route tables).
:func:`churn_timeline` then turns a pair's schedule and event stream
into the one :class:`~repro.faults.timeline.Timeline` a chain runs
under: handover signals, outages on the hops whose real edges changed,
and delays that track the route.

Determinism discipline: all set differences are sorted before they are
turned into events, and event streams carry a total order, so the same
schedule always yields the same stream regardless of hash seeds.
"""

from __future__ import annotations

from typing import Optional

from repro.churn.events import (
    SIGNAL_KINDS,
    GsReattach,
    LinkAdded,
    LinkRemoved,
    PathSwitch,
    RouteLost,
    RouteRestored,
    TopologyEvent,
    TopologyEventStream,
)
from repro.constellation.emulation import route_entries
from repro.constellation.routing import PathSchedule, PathSnapshot
from repro.faults.timeline import LinkDown, Timeline

#: Handover blackout per removed edge, matching the paper's sub-100 ms
#: GSL re-acquisition window (Sec. II-A).
DEFAULT_OUTAGE_S = 0.08


def _edges(snapshot: PathSnapshot) -> dict[tuple[str, str], tuple[bool, int]]:
    """Map of undirected edge -> (is_gsl, hop index) for one snapshot."""
    out: dict[tuple[str, str], tuple[bool, int]] = {}
    for i, (u, v) in enumerate(zip(snapshot.nodes[:-1], snapshot.nodes[1:])):
        key = (u, v) if u <= v else (v, u)
        out[key] = (snapshot.hop_is_gsl[i], i)
    return out


def diff_snapshots(
    prev: PathSnapshot,
    cur: PathSnapshot,
    pair: str,
    at_s: Optional[float] = None,
) -> list[TopologyEvent]:
    """Events describing the change from ``prev`` to ``cur``.

    Returns an empty list when the node-level route is unchanged (pure
    delay drift is not an event — the dynamics driver handles it).
    """
    if prev.nodes == cur.nodes:
        return []
    t = cur.time if at_s is None else at_s
    events: list[TopologyEvent] = []
    prev_edges = _edges(prev)
    cur_edges = _edges(cur)
    for key in sorted(set(prev_edges) - set(cur_edges)):
        is_gsl, hop = prev_edges[key]
        events.append(
            LinkRemoved(
                at_s=t, pair=pair, a=key[0], b=key[1],
                is_gsl=is_gsl, hop_index=hop,
            )
        )
    for key in sorted(set(cur_edges) - set(prev_edges)):
        is_gsl, hop = cur_edges[key]
        events.append(
            LinkAdded(
                at_s=t, pair=pair, a=key[0], b=key[1],
                is_gsl=is_gsl, hop_index=hop,
            )
        )
    changed = len(set(prev.nodes) ^ set(cur.nodes)) // 2
    events.append(
        PathSwitch(
            at_s=t, pair=pair,
            old_nodes=prev.nodes, new_nodes=cur.nodes,
            changed_nodes=changed,
            delay_delta_s=cur.total_delay_s - prev.total_delay_s,
        )
    )
    # Endpoint attachment changes: nodes[0]/nodes[-1] are the ground
    # stations; nodes[1]/nodes[-2] their serving satellites.
    if len(prev.nodes) >= 2 and len(cur.nodes) >= 2:
        if prev.nodes[1] != cur.nodes[1]:
            events.append(
                GsReattach(
                    at_s=t, pair=pair, station=prev.nodes[0],
                    old_sat=prev.nodes[1], new_sat=cur.nodes[1], side="a",
                )
            )
        if prev.nodes[-2] != cur.nodes[-2]:
            events.append(
                GsReattach(
                    at_s=t, pair=pair, station=prev.nodes[-1],
                    old_sat=prev.nodes[-2], new_sat=cur.nodes[-2], side="b",
                )
            )
    return events


def events_from_schedule(
    schedule: PathSchedule,
    pair: Optional[str] = None,
) -> TopologyEventStream:
    """The full event stream of one city pair's schedule.

    Includes :class:`RouteLost`/:class:`RouteRestored` for every recorded
    gap (schedules computed with ``on_gap="hold"``).
    """
    name = pair if pair is not None else f"{schedule.gs_a}-{schedule.gs_b}"
    events: list[TopologyEvent] = []
    for prev, cur in zip(schedule.snapshots[:-1], schedule.snapshots[1:]):
        events.extend(diff_snapshots(prev, cur, name))
    for start, end in schedule.gaps:
        events.append(
            RouteLost(at_s=start, pair=name, duration_s=end - start)
        )
        events.append(RouteRestored(at_s=end, pair=name))
    return TopologyEventStream(events)


def compress_schedule(schedule: PathSchedule, factor: float) -> PathSchedule:
    """Time-compress a schedule by ``factor`` (orbital minutes -> sim seconds).

    A LEO shell produces a handover every few tens of seconds per pair;
    simulating minutes of wall-orbit per run is wasteful when the claim
    under test is *recovery per handover*.  Compressing the snapshot
    timeline preserves the event sequence and geometry-derived delays
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


def outage_entries(stream: TopologyEventStream, n_hops: int) -> list[tuple]:
    """The outages that realise ``stream`` on a chain of ``n_hops`` hops.

    The emulation carries a route on a fixed chain, so a removed edge at
    ``hop_index`` of the real route takes chain hop
    ``min(hop_index, n_hops - 1)`` down for :data:`DEFAULT_OUTAGE_S` —
    endpoint GSLs land on the chain's edge hops, interior ISLs on
    interior hops.  A :class:`RouteLost` gap takes hop 0, the
    producer-side uplink, down for the whole gap (at least the
    blackout): one dead hop stops the whole path.  Outages on one hop
    that overlap or abut merge into one.  Every ``up`` entry of
    ``False`` comes before every ``True``, so at an instant where one
    hop comes back and another goes down, the down applies first.
    """
    if n_hops < 1:
        raise ValueError("need at least one hop in the emulated chain")
    per_hop: dict[int, list[tuple[float, float]]] = {}
    for event in stream:
        if isinstance(event, LinkRemoved):
            per_hop.setdefault(min(event.hop_index, n_hops - 1), []).append(
                (event.at_s, event.at_s + DEFAULT_OUTAGE_S)
            )
        elif isinstance(event, RouteLost):
            per_hop.setdefault(0, []).append((
                event.at_s,
                event.at_s + max(event.duration_s, DEFAULT_OUTAGE_S),
            ))
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
    stream: TopologyEventStream,
    n_hops: int,
    update_interval_s: float,
) -> Timeline:
    """One pair's churn on a chain of ``n_hops`` hops, as one timeline.

    At each instant, in this order: a ``signal`` entry per
    :data:`~repro.churn.events.SIGNAL_KINDS` event of ``stream`` (the
    handover up-call, traced as a ``topology`` record), the
    :func:`outage_entries`, and the delay retunes of
    :func:`~repro.constellation.emulation.route_entries` sampled every
    ``update_interval_s``.
    """
    signals = [(event.at_s, event.pair, "signal", event.kind)
               for event in stream if event.kind in SIGNAL_KINDS]
    return Timeline((
        *signals,
        *outage_entries(stream, n_hops),
        *route_entries(schedule, n_hops, update_interval_s,
                       flush_on_change=False),
    ))
