"""Convenience wiring of TCP flows over the standard topologies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.netsim.link import DuplexLink
from repro.netsim.node import ChainForwarder, Node, wire_chain_forwarders
from repro.netsim.topology import HopSpec, build_chain
from repro.netsim.trace import FlowRecorder
from repro.obs.metrics import METRICS, attach_tcp_samplers
from repro.simcore.random import RngRegistry
from repro.simcore.simulator import Simulator
from repro.tcp.cc import CCSpec
from repro.tcp.connection import ByteStream, TcpReceiver, TcpSender
from repro.tcp.segment import DEFAULT_MSS


@dataclass
class TcpPath:
    """A wired end-to-end TCP flow over a chain."""

    sender: TcpSender
    receiver: TcpReceiver
    recorder: FlowRecorder
    links: list[DuplexLink]
    forwarders: list[ChainForwarder]

    @property
    def nodes(self) -> list[Node]:
        return [self.sender, *self.forwarders, self.receiver]

    @property
    def wire_bytes_sent(self) -> int:
        return self.sender.wire_bytes_sent

    @property
    def retransmissions(self) -> int:
        return self.sender.retransmissions


def build_e2e_tcp_path(
    sim: Simulator,
    rng: RngRegistry,
    hops: Sequence[HopSpec],
    cc: CCSpec,
    stream: Optional[ByteStream] = None,
    mss: int = DEFAULT_MSS,
    flow_base: str = "tcp",
    start_time: float = 0.0,
    stop_time: Optional[float] = None,
) -> TcpPath:
    """End-to-end TCP across an N-hop chain of transparent forwarders.

    This is the baseline configuration of Figs. 2, 4, 5, 12: one TCP
    connection whose segments are relayed by ``len(hops) - 1`` dumb nodes.
    """
    n = len(hops)
    if n < 1:
        raise ValueError("need at least one hop")
    recorder = FlowRecorder(sim, name=f"{flow_base}:{cc.name}")
    sender = TcpSender(
        sim, f"{flow_base}-snd", f"{flow_base}-rcv", None, cc,
        stream=stream, mss=mss,
        flow_id=flow_base, start_time=start_time, stop_time=stop_time,
    )
    forwarders = [ChainForwarder(sim, f"{flow_base}-fwd{i}") for i in range(n - 1)]
    receiver = TcpReceiver(
        sim, f"{flow_base}-rcv", None, recorder=recorder, flow_id=flow_base
    )
    nodes = [sender, *forwarders, receiver]
    links = build_chain(sim, nodes, list(hops), rng)
    wire_chain_forwarders(nodes, links)
    sender.out_link = links[0].ab
    receiver.out_link = links[-1].ba
    path = TcpPath(sender, receiver, recorder, links, forwarders)
    if METRICS.enabled:
        attach_tcp_samplers(sim, path)
    return path
