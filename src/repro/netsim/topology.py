"""Topology builders: chains, dumbbells, and parallel-path facades.

These wire protocol-agnostic :class:`~repro.netsim.link.DuplexLink` fabric
between caller-supplied nodes.  Protocol packages provide the node objects
(TCP endpoints, LEOTP agents, routers); the builders only create links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.netsim.bandwidth import BandwidthProfile
from repro.netsim.link import DuplexLink, Link
from repro.netsim.node import Node, Router
from repro.simcore.random import RngRegistry
from repro.simcore.simulator import Simulator


@dataclass(frozen=True)
class HopSpec:
    """Per-hop link parameters.

    ``delay_s`` is the one-way propagation delay of the hop (so the hop RTT
    is ``2*delay_s`` plus serialisation).  ``profile`` overrides
    ``rate_bps`` when provided and applies to both directions unless
    ``profile_reverse`` is also given.
    """

    rate_bps: float = 20e6
    delay_s: float = 0.005
    plr: float = 0.0
    queue_bytes: Optional[int] = 256_000
    profile: Optional[BandwidthProfile] = None
    profile_reverse: Optional[BandwidthProfile] = None


def build_chain(
    sim: Simulator,
    nodes: Sequence[Node],
    hops: Sequence[HopSpec],
    rng: RngRegistry,
) -> list[DuplexLink]:
    """Connect ``nodes[i]`` to ``nodes[i+1]`` with ``hops[i]``.

    Loss RNG streams are named per hop and direction, so runs are
    reproducible and independent of unrelated randomness.
    """
    if len(nodes) != len(hops) + 1:
        raise ValueError(
            f"need len(nodes) == len(hops)+1, got {len(nodes)} nodes, {len(hops)} hops"
        )
    links = []
    for i, spec in enumerate(hops):
        duplex = DuplexLink(
            sim,
            nodes[i],
            nodes[i + 1],
            rate_bps=spec.rate_bps,
            delay_s=spec.delay_s,
            plr=spec.plr,
            queue_bytes=spec.queue_bytes,
            rng_ab=rng.stream(f"loss:hop{i}:fwd"),
            rng_ba=rng.stream(f"loss:hop{i}:rev"),
            profile_ab=spec.profile,
            profile_ba=(
                spec.profile_reverse
                if spec.profile_reverse is not None
                else spec.profile
            ),
            name=f"hop{i}",
        )
        links.append(duplex)
    return links


def uniform_chain_specs(
    n_hops: int,
    rate_bps: float = 20e6,
    delay_s: float = 0.005,
    plr: float = 0.0,
    queue_bytes: Optional[int] = 256_000,
) -> list[HopSpec]:
    """N identical hops — the paper's controlled-environment topology."""
    if n_hops <= 0:
        raise ValueError("need at least one hop")
    return [
        HopSpec(rate_bps=rate_bps, delay_s=delay_s, plr=plr, queue_bytes=queue_bytes)
        for _ in range(n_hops)
    ]


@dataclass
class Dumbbell:
    """A built dumbbell topology (see :func:`build_dumbbell`)."""

    left_router: Router
    right_router: Router
    bottleneck: DuplexLink
    access_left: list[DuplexLink]
    access_right: list[DuplexLink]


def build_dumbbell(
    sim: Simulator,
    senders: Sequence[Node],
    receivers: Sequence[Node],
    rng: RngRegistry,
    bottleneck: HopSpec,
    access_specs: Optional[Sequence[HopSpec]] = None,
) -> Dumbbell:
    """Classic dumbbell: senders -- L ==bottleneck== R -- receivers.

    ``access_specs[i]`` configures *both* the sender-side and receiver-side
    access link of flow ``i`` (so a flow's extra RTT is split evenly across
    the two access links).  Routes are installed for sender->receiver and
    receiver->sender traffic keyed on node names.
    """
    if len(senders) != len(receivers):
        raise ValueError("need one receiver per sender")
    if access_specs is None:
        access_specs = [HopSpec(rate_bps=100e6, delay_s=0.001)] * len(senders)
    if len(access_specs) != len(senders):
        raise ValueError("need one access spec per flow")

    left = Router(sim, "router-L")
    right = Router(sim, "router-R")
    mid = DuplexLink(
        sim, left, right,
        rate_bps=bottleneck.rate_bps,
        delay_s=bottleneck.delay_s,
        plr=bottleneck.plr,
        queue_bytes=bottleneck.queue_bytes,
        rng_ab=rng.stream("loss:bottleneck:fwd"),
        rng_ba=rng.stream("loss:bottleneck:rev"),
        profile_ab=bottleneck.profile,
        profile_ba=bottleneck.profile_reverse or bottleneck.profile,
        name="bottleneck",
    )
    access_left: list[DuplexLink] = []
    access_right: list[DuplexLink] = []
    for i, (snd, rcv, spec) in enumerate(zip(senders, receivers, access_specs)):
        al = DuplexLink(
            sim, snd, left,
            rate_bps=spec.rate_bps, delay_s=spec.delay_s, plr=spec.plr,
            queue_bytes=spec.queue_bytes,
            rng_ab=rng.stream(f"loss:accessL{i}:fwd"),
            rng_ba=rng.stream(f"loss:accessL{i}:rev"),
            name=f"accessL{i}",
        )
        ar = DuplexLink(
            sim, right, rcv,
            rate_bps=spec.rate_bps, delay_s=spec.delay_s, plr=spec.plr,
            queue_bytes=spec.queue_bytes,
            rng_ab=rng.stream(f"loss:accessR{i}:fwd"),
            rng_ba=rng.stream(f"loss:accessR{i}:rev"),
            name=f"accessR{i}",
        )
        access_left.append(al)
        access_right.append(ar)
        # Forward direction: sender -> left -> right -> receiver.
        left.add_route(rcv.name, mid.ab)
        right.add_route(rcv.name, ar.ab)
        # Reverse direction (ACKs): receiver -> right -> left -> sender.
        right.add_route(snd.name, mid.ba)
        left.add_route(snd.name, al.ba)
    return Dumbbell(left, right, mid, access_left, access_right)


class FirstUpLink:
    """Sends on the first of parallel member links that is up.

    A relay facing parallel paths sends through this, and ``up`` entries
    of a :class:`~repro.faults.timeline.Timeline` choose the path.  With
    no member up, the first member takes the packet and drops it, as a
    down link does.
    """

    def __init__(self, members: Sequence[Link]) -> None:
        self.members = tuple(members)

    def send(self, packet) -> bool:
        for link in self.members:
            if link.up:
                return link.send(packet)
        return self.members[0].send(packet)
