"""High-level wiring of LEOTP transfers over the standard topologies.

:func:`build_leotp_path` assembles Producer → intermediates → Consumer
over an N-hop chain; ``coverage`` selects how many intermediates are
true Midnodes versus transparent forwarders, reproducing the paper's
partial-deployment study (Sec. V-B, Fig. 15).  When the global metrics
registry is enabled, built paths are auto-instrumented with the
read-only samplers of :mod:`repro.obs` — experiments need no wiring
changes to become observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.config import LeotpConfig
from repro.core.consumer import Consumer
from repro.core.midnode import Midnode
from repro.core.producer import Producer
from repro.netsim.link import DuplexLink
from repro.netsim.node import ChainForwarder, Node, wire_chain_forwarders
from repro.netsim.topology import HopSpec, build_chain
from repro.netsim.trace import FlowRecorder
from repro.obs.metrics import METRICS, attach_leotp_samplers
from repro.simcore.random import RngRegistry
from repro.simcore.simulator import Simulator


@dataclass
class LeotpPath:
    """A wired LEOTP transfer over a chain."""

    producer: Producer
    intermediates: list[Node]  # Midnodes and/or plain forwarders
    consumer: Consumer
    recorder: FlowRecorder
    links: list[DuplexLink]

    @property
    def midnodes(self) -> list[Midnode]:
        return [n for n in self.intermediates if isinstance(n, Midnode)]

    # The read interface every built path shares (see DESIGN.md §5).

    @property
    def nodes(self) -> list[Node]:
        return [self.producer, *self.intermediates, self.consumer]

    @property
    def wire_bytes_sent(self) -> int:
        return self.producer.wire_bytes_sent

    @property
    def retransmissions(self) -> int:
        return self.consumer.retransmission_interests


def midnode_positions(n_intermediate: int, coverage: float) -> list[bool]:
    """Which intermediate positions host a Midnode at the given coverage.

    Positions are spread evenly (e.g. coverage 0.25 puts a Midnode at
    every fourth intermediate node), reproducing the paper's partial
    deployment where "the intermediate nodes can be deployed on part of
    the satellites".
    """
    if not 0.0 <= coverage <= 1.0:
        raise ValueError("coverage must be in [0, 1]")
    if n_intermediate == 0:
        return []
    want = round(coverage * n_intermediate)
    flags = [False] * n_intermediate
    if want == 0:
        return flags
    # Even spread: mark position i when the cumulative quota crosses an
    # integer boundary.
    marked = 0
    for i in range(n_intermediate):
        target = (i + 1) * want // n_intermediate
        if target > marked:
            flags[i] = True
            marked = target
    return flags


def wire_leotp_chain(
    sim: Simulator,
    rng: RngRegistry,
    nodes: Sequence[Node],
    hops: Sequence[HopSpec],
) -> list[DuplexLink]:
    """Link ``nodes`` with ``hops`` and point every Midnode upstream.

    ``nodes[0]`` is the responder end (a Producer or an ingress
    gateway): forwarders relay straight through, and each Midnode sends
    its Interests toward ``nodes[0]`` on the ``.ba`` direction of the
    link on its responder side.
    """
    links = build_chain(sim, nodes, list(hops), rng)
    wire_chain_forwarders(nodes, links)
    for link, node in zip(links, nodes[1:]):
        if isinstance(node, Midnode):
            node.set_upstream(link.ba)
    return links


def build_leotp_path(
    sim: Simulator,
    rng: RngRegistry,
    hops: Sequence[HopSpec],
    config: LeotpConfig = LeotpConfig(),
    total_bytes: Optional[int] = None,
    coverage: float = 1.0,
    flow_id: str = "leotp",
    start_time: float = 0.0,
    stop_time: Optional[float] = None,
) -> LeotpPath:
    """Producer -- intermediates -- Consumer across an N-hop chain.

    ``coverage`` selects the fraction of intermediate nodes that are LEOTP
    Midnodes; the rest are transparent forwarders (coverage 0 gives the
    paper's "no Midnodes" ablation, where only the endpoints run LEOTP).
    """
    n = len(hops)
    if n < 1:
        raise ValueError("need at least one hop")
    recorder = FlowRecorder(sim, name=flow_id)
    producer = Producer(sim, f"{flow_id}-prod", config, content_bytes=total_bytes)
    flags = midnode_positions(n - 1, coverage)
    intermediates: list[Node] = []
    for i, is_mid in enumerate(flags):
        if is_mid:
            intermediates.append(Midnode(sim, f"{flow_id}-mid{i}", config))
        else:
            intermediates.append(ChainForwarder(sim, f"{flow_id}-fwd{i}"))
    consumer = Consumer(
        sim, f"{flow_id}-cons", flow_id, config,
        total_bytes=total_bytes, recorder=recorder,
        start_time=start_time, stop_time=stop_time,
    )
    nodes: list[Node] = [producer, *intermediates, consumer]
    links = wire_leotp_chain(sim, rng, nodes, hops)
    # Interests flow consumer -> producer on the .ba directions.
    consumer.out_link = links[-1].ba
    path = LeotpPath(producer, intermediates, consumer, recorder, links)
    if METRICS.enabled:
        # Observation is read-only: samplers never touch protocol state,
        # so results are bit-identical with metrics on or off.
        attach_leotp_samplers(sim, path)
    return path
