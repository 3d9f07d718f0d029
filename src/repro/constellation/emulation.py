"""Bridges constellation routing onto the packet-level substrate.

The paper's Starlink experiments run transport protocols over a Mininet
chain whose per-hop delays track the computed route and whose links are
reconfigured at handover.  We reproduce the same reduction: a fixed-length
chain of links whose propagation delays follow the route schedule, with
queue flushes (packet loss bursts) on route changes.

The chain length is the *modal* hop count of the schedule; the end-to-end
propagation delay always matches the schedule exactly (the total is spread
across the chain), so RTT dynamics, handover loss, and hop-count scale are
all preserved.  This is the substitution documented in DESIGN.md.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.constellation.routing import PathSchedule
from repro.netsim.bandwidth import HandoverVCurveBandwidth
from repro.netsim.topology import HopSpec


def representative_hop_count(schedule: PathSchedule) -> int:
    """Most common hop count across the schedule's snapshots."""
    counts = Counter(s.hop_count for s in schedule.snapshots)
    return counts.most_common(1)[0][0]


@dataclass(frozen=True)
class StarlinkLinkParams:
    """Link parameters of the paper's emulated Starlink (Sec. V-C).

    GSL uplink is the 10 Mbps bottleneck with a V-curve around handover and
    ±0.5 Mbps random bias; other hops are 20 Mbps.  PLR: 1 % on GSLs,
    0.1 % on ISLs.
    """

    gsl_rate_bps: float = 10e6
    isl_rate_bps: float = 20e6
    gsl_plr: float = 0.01
    isl_plr: float = 0.001
    queue_bytes: int = 256_000
    handover_interval_s: float = 15.0
    bias_bps: float = 0.5e6


def starlink_hop_specs(
    n_hops: int,
    params: StarlinkLinkParams = StarlinkLinkParams(),
    isls_enabled: bool = True,
    seed: int = 0,
) -> list[HopSpec]:
    """Per-hop specs for a chain emulating a Starlink route.

    Hop 0 is the producer-side GSL uplink: the bottleneck, with the
    handover V-curve bandwidth profile.  The last hop is the consumer-side
    GSL downlink.  Interior hops are ISLs when enabled; in the bent-pipe
    network every hop is a GSL (ground relays), so GSL loss applies to all.
    """
    if n_hops < 2:
        raise ValueError("a satellite route has at least two hops (up + down)")
    specs = []
    for i in range(n_hops):
        is_gsl = i == 0 or i == n_hops - 1 or not isls_enabled
        if i == 0:
            profile = HandoverVCurveBandwidth(
                rate_bps=params.gsl_rate_bps,
                handover_interval_s=params.handover_interval_s,
                bias_bps=params.bias_bps,
                seed=seed,
            )
            specs.append(
                HopSpec(
                    rate_bps=params.gsl_rate_bps,
                    plr=params.gsl_plr,
                    queue_bytes=params.queue_bytes,
                    profile=profile,
                )
            )
        else:
            specs.append(
                HopSpec(
                    rate_bps=params.isl_rate_bps,
                    plr=params.gsl_plr if is_gsl else params.isl_plr,
                    queue_bytes=params.queue_bytes,
                )
            )
    return specs


def route_entries(
    schedule: PathSchedule,
    n_hops: int,
    update_interval_s: float,
    flush_on_change: bool = True,
) -> list[tuple]:
    """Timeline entries that make an ``n_hops`` chain follow ``schedule``.

    The route is sampled every ``update_interval_s`` from t=0 until its
    last snapshot is in force.  Whenever a sample moves the chain's
    end-to-end propagation delay, every hop's ``delay_s`` is retuned to
    an equal share of it.  With ``flush_on_change``, a sample whose node
    set differs from the previous one flushes as many interior hops as
    nodes changed (packets buffered on a departed satellite are lost —
    the paper's end-to-end reliability challenge): a zero-length outage,
    a ``up`` entry of ``False`` then ``True``.  Entries are
    ``(t, hop, field, value)`` tuples for a
    :class:`~repro.faults.timeline.Timeline`.
    """
    if n_hops < 1 or not update_interval_s > 0:
        raise ValueError("need at least one hop and a positive interval")
    entries: list[tuple] = []
    delay = nodes = None
    last = schedule.snapshots[-1].time
    t = 0.0
    while True:
        snap = schedule.at(t)
        per_hop = snap.total_delay_s / n_hops
        if per_hop != delay:
            entries += [(t, hop, "delay_s", per_hop) for hop in range(n_hops)]
            delay = per_hop
        if flush_on_change and nodes is not None and snap.nodes != nodes:
            changed = max(len(set(snap.nodes) ^ set(nodes)) // 2, 1)
            for hop in range(1, n_hops - 1)[:changed] or range(1):
                entries += [(t, hop, "up", False), (t, hop, "up", True)]
        nodes = snap.nodes
        if t >= last:
            return entries
        t += update_interval_s
