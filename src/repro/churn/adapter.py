"""Adapting topology event streams onto the fault-injection machinery.

The chaos stack (:class:`FaultInjector`, :func:`check_flow`,
``recovery_report``) already knows how to take links down, audit protocol
invariants, and measure recovery — against *hand-written* schedules.
This module closes the loop: a :class:`TopologyEventStream` derived from
orbital geometry becomes an ordinary :class:`FaultSchedule`, so every
existing harness runs unmodified under physics-driven churn.

Mapping. The emulation reduction carries a route on a fixed chain of
``n_links`` hops, so a removed edge at ``hop_index`` of the real route
maps to chain hop ``min(hop_index, n_links - 1)`` — endpoint GSLs land on
the chain's edge hops, interior ISLs on interior hops.  Each removed
edge takes its chain hop down for ``outage_s`` (the paper's handover
blackout); a :class:`RouteLost` gap takes the producer-side uplink down
for the whole gap.  Intervals on the same hop are coalesced into single
outages, so the produced schedule always passes
:meth:`FaultSchedule.validate`.
"""

from __future__ import annotations

from repro.churn.events import LinkRemoved, RouteLost, TopologyEventStream
from repro.faults.schedule import FaultSchedule, LinkDown

#: Default handover blackout, matching the paper's sub-100 ms GSL
#: re-acquisition window (Sec. II-A).
DEFAULT_OUTAGE_S = 0.08


def _coalesce(
    intervals: list[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Merge overlapping or abutting ``[start, end)`` intervals."""
    merged: list[tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def faults_from_stream(
    stream: TopologyEventStream,
    n_links: int,
    *,
    outage_s: float = DEFAULT_OUTAGE_S,
    link_prefix: str = "",
    route_loss: bool = True,
) -> FaultSchedule:
    """Build a :class:`FaultSchedule` realising ``stream`` on a chain.

    ``link_prefix`` namespaces the targeted hop names (``"{prefix}hop{i}"``),
    so several pairs' streams can be armed on one injector whose pools
    registered links under distinct prefixes.
    """
    if n_links < 1:
        raise ValueError("need at least one link in the emulated chain")
    if outage_s <= 0:
        raise ValueError("outage must be positive")
    per_hop: dict[int, list[tuple[float, float]]] = {}
    for event in stream:
        if isinstance(event, LinkRemoved):
            hop = min(event.hop_index, n_links - 1)
            per_hop.setdefault(hop, []).append(
                (event.at_s, event.at_s + outage_s)
            )
        elif isinstance(event, RouteLost) and route_loss:
            # No route anywhere: the producer-side uplink is as good a
            # choke point as any — one dead hop stops the whole path.
            per_hop.setdefault(0, []).append(
                (event.at_s, event.at_s + max(event.duration_s, outage_s))
            )
    schedule = FaultSchedule()
    for hop in sorted(per_hop):
        for start, end in _coalesce(per_hop[hop]):
            schedule.add(
                LinkDown(
                    at_s=start,
                    link=f"{link_prefix}hop{hop}",
                    duration_s=end - start,
                )
            )
    return schedule
