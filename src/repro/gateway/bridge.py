"""TCP <-> LEOTP gateways (paper Sec. VII, "Compatible with TCP").

"An alternative solution is to use LEOTP only in the satellite segment.
Transparent proxies are deployed at ground stations to connect the
territorial network and LEOTP."  This module implements that deployment:

* the **ingress gateway** (server-side ground station) terminates the
  terrestrial TCP connection and re-publishes the byte stream as LEOTP
  content (a :class:`~repro.gateway.streaming.StreamingProducer`);
* the **egress gateway** (client-side ground station) pulls the flow
  with a LEOTP Consumer and re-sends it to the client over a second
  terrestrial TCP connection.

The paper notes the bridging is hard because "TCP is sender-driven with
a stateful connection, while LEOTP is a connectionless receiver-driven
protocol"; the pivot here is the gateway buffer: TCP pushes into it,
LEOTP Interests pull out of it.  End-of-stream signalling rides on the
known transfer size (a real gateway would use a FIN-equivalent frame).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.config import LeotpConfig
from repro.core.consumer import Consumer
from repro.core.flow import wire_leotp_chain
from repro.core.midnode import Midnode
from repro.core.wire import LeotpPacket
from repro.gateway.streaming import StreamingProducer
from repro.netsim.link import DuplexLink, Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.topology import HopSpec
from repro.netsim.trace import FlowRecorder
from repro.simcore.random import RngRegistry
from repro.simcore.simulator import Simulator
from repro.tcp.cc import CCSpec
from repro.tcp.connection import FiniteStream, ProxyStream, TcpReceiver, TcpSender
from repro.tcp.segment import TcpSegment


class IngressGateway(Node):
    """Terminates the server's TCP connection; serves the bytes as LEOTP."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        flow_id: str,
        config: LeotpConfig = LeotpConfig(),
        tcp_flow_id: Optional[str] = None,
    ) -> None:
        super().__init__(sim, name)
        self.producer = StreamingProducer(sim, name, config)
        self.tcp_receiver = TcpReceiver(
            sim, name, out_link=None,
            deliver=self._on_tcp_bytes, flow_id=tcp_flow_id,
        )
        self.flow_id = flow_id
        self.bytes_ingested = 0

    def _on_tcp_bytes(self, nbytes: int, first_ts: float) -> None:
        self.bytes_ingested += nbytes
        self.producer.append(nbytes)

    def on_receive(self, packet: Packet, link: Link) -> None:
        if isinstance(packet, TcpSegment):
            self.tcp_receiver.receive(packet, link)
        elif isinstance(packet, LeotpPacket):
            self.producer.receive(packet, link)


class EgressGateway(Node):
    """Pulls the flow over LEOTP; re-sends it over TCP to the client."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        flow_id: str,
        client_name: str,
        total_bytes: Optional[int],
        config: LeotpConfig = LeotpConfig(),
        cc: CCSpec = CCSpec("cubic"),
        recorder: Optional[FlowRecorder] = None,
    ) -> None:
        super().__init__(sim, name)
        self.stream = ProxyStream()
        self.consumer = Consumer(
            sim, name, flow_id, config, total_bytes=total_bytes,
            recorder=recorder, deliver=self._on_leotp_bytes,
        )
        self.tcp_sender = TcpSender(
            sim, name, client_name, None, cc, stream=self.stream,
        )

    def _on_leotp_bytes(self, nbytes: int, origin_ts: float) -> None:
        self.stream.push(nbytes, origin_ts)
        self.tcp_sender.kick()

    @property
    def buffered_bytes(self) -> int:
        return self.stream.buffered_bytes(self.tcp_sender.snd_nxt)

    def on_receive(self, packet: Packet, link: Link) -> None:
        if isinstance(packet, TcpSegment):
            self.tcp_sender.receive(packet, link)
        elif isinstance(packet, LeotpPacket):
            self.consumer.receive(packet, link)


@dataclass
class GatewayPath:
    """A fully wired server -> ingress -> LEO segment -> egress -> client path."""

    server: TcpSender
    ingress: IngressGateway
    satellites: list[Node]
    egress: EgressGateway
    client: TcpReceiver
    recorder: FlowRecorder
    # LEO-segment duplex links, ingress-side first.  Exposing them (plus
    # the consumer/producer/midnodes views below) makes the bridged path
    # a drop-in target for the chaos harness: FaultInjector.register_path
    # names them hop0..hopN and check_flow audits the LEOTP segment
    # exactly as it would a plain chain.
    links: list[DuplexLink] = field(default_factory=list)

    @property
    def consumer(self) -> Consumer:
        """The LEOTP Consumer pulling the flow (lives in the egress GW)."""
        return self.egress.consumer

    @property
    def producer(self) -> StreamingProducer:
        """The LEOTP Producer serving the flow (lives in the ingress GW)."""
        return self.ingress.producer

    @property
    def midnodes(self) -> list[Midnode]:
        return [s for s in self.satellites if isinstance(s, Midnode)]

    @property
    def nodes(self) -> list[Node]:
        """The LEOTP segment's nodes (the fault-injectable part)."""
        return [self.producer, *self.satellites, self.consumer]

    @property
    def wire_bytes_sent(self) -> int:
        return self.producer.wire_bytes_sent

    @property
    def retransmissions(self) -> int:
        return self.consumer.retransmission_interests

    @property
    def completed(self) -> bool:
        return (
            self.server.finished
            and self.client.bytes_delivered >= (self.server.stream.total_bytes
                                                if isinstance(self.server.stream, FiniteStream)
                                                else 0)
        )


def build_gateway_path(
    sim: Simulator,
    rng: RngRegistry,
    total_bytes: int,
    leo_hops: Sequence[HopSpec],
    terrestrial_spec: Optional[HopSpec] = None,
    config: LeotpConfig = LeotpConfig(),
    tcp_cc: CCSpec = CCSpec("cubic"),
    flow_id: str = "bridged",
) -> GatewayPath:
    """Wire the full bridged deployment over an N-hop LEO segment.

    ``leo_hops`` configures the satellite segment (Midnodes in between);
    ``terrestrial_spec`` both wired segments (default: fast, clean, 5 ms).
    """
    if total_bytes <= 0:
        raise ValueError("total_bytes must be positive")
    terrestrial = terrestrial_spec or HopSpec(rate_bps=100e6, delay_s=0.005)
    recorder = FlowRecorder(sim, name=flow_id)

    server = TcpSender(
        sim, "server", "gw-ingress", None, tcp_cc,
        stream=FiniteStream(total_bytes), flow_id="terrestrial-up",
    )
    ingress = IngressGateway(sim, "gw-ingress", flow_id, config,
                             tcp_flow_id="terrestrial-up")
    egress = EgressGateway(
        sim, "gw-egress", flow_id, "client", total_bytes, config,
        cc=tcp_cc, recorder=recorder,
    )
    client = TcpReceiver(sim, "client", None, flow_id=None)

    # Terrestrial segments.
    up = DuplexLink(sim, server, ingress,
                    rate_bps=terrestrial.rate_bps, delay_s=terrestrial.delay_s,
                    name="terrestrial-up")
    down = DuplexLink(sim, egress, client,
                      rate_bps=terrestrial.rate_bps, delay_s=terrestrial.delay_s,
                      name="terrestrial-down")
    server.out_link = up.ab
    ingress.tcp_receiver.out_link = up.ba
    egress.tcp_sender.out_link = down.ab
    client.out_link = down.ba

    # The LEO segment: ingress -- midnodes -- egress.
    satellites: list[Node] = [
        Midnode(sim, f"sat{i}", config) for i in range(len(leo_hops) - 1)
    ]
    leo_nodes: list[Node] = [ingress, *satellites, egress]
    leo_links = wire_leotp_chain(sim, rng, leo_nodes, leo_hops)
    egress.consumer.out_link = leo_links[-1].ba
    return GatewayPath(server, ingress, satellites, egress, client, recorder,
                       links=leo_links)
