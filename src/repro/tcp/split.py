"""Split TCP: per-hop TCP connections glued by proxies.

The classic performance-enhancing-proxy design the paper analyses in
Sec. II-B / Fig. 4: each hop runs an independent TCP connection; a proxy
terminates the upstream connection, buffers the byte stream, and re-sends
it on its own downstream connection.  Bytes carry their *original* first-
transmission timestamp across proxies so end-to-end OWD (including proxy
queueing — Split TCP's weakness) is measured faithfully.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.netsim.link import DuplexLink, Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.netsim.trace import FlowRecorder
from repro.simcore.simulator import Simulator
from repro.tcp.cc import CCSpec
from repro.tcp.connection import ByteStream, ProxyStream, TcpReceiver, TcpSender
from repro.tcp.segment import DEFAULT_MSS, TcpSegment


class SplitTcpProxy(Node):
    """One proxy: upstream TCP receiver + downstream TCP sender.

    The internal buffer between the two connections is unbounded, as in
    the plain Split TCP the paper evaluates — the resulting backlog at
    intermediate nodes is precisely the pathology Fig. 4 demonstrates.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        up_ack_link: Optional[Link],
        down_data_link: Optional[Link],
        cc: CCSpec,
        next_hop_name: str,
        up_flow_id: str,
        down_flow_id: str,
        mss: int = DEFAULT_MSS,
    ) -> None:
        super().__init__(sim, name)
        self.stream = ProxyStream()
        self.receiver = TcpReceiver(
            sim, name, out_link=up_ack_link,
            deliver=self._on_deliver, flow_id=up_flow_id,
        )
        self.sender = TcpSender(
            sim, name, next_hop_name, down_data_link,
            cc, stream=self.stream,
            mss=mss, flow_id=down_flow_id,
        )

    def _on_deliver(self, nbytes: int, first_ts: float) -> None:
        self.stream.push(nbytes, first_ts)
        self.sender.kick()

    @property
    def buffered_bytes(self) -> int:
        """Backlog between the two connections (proxy queue)."""
        return self.stream.buffered_bytes(self.sender.snd_nxt)

    def on_receive(self, packet: Packet, link: Link) -> None:
        if not isinstance(packet, TcpSegment):
            return
        if packet.is_ack:
            self.sender.receive(packet, link)
        else:
            self.receiver.receive(packet, link)


@dataclass
class SplitTcpPath:
    """A fully wired Split TCP path over an N-hop chain.

    Build with :func:`build_split_tcp_path`; exposes the end sender, the
    proxies, the end receiver, and aggregate backlog for diagnostics.
    """

    sender: TcpSender
    proxies: list[SplitTcpProxy]
    receiver: TcpReceiver
    links: list[DuplexLink]
    recorder: FlowRecorder

    @property
    def nodes(self) -> list[Node]:
        return [self.sender, *self.proxies, self.receiver]

    @property
    def wire_bytes_sent(self) -> int:
        return self.sender.wire_bytes_sent

    @property
    def retransmissions(self) -> int:
        return self.sender.retransmissions

    @property
    def total_proxy_backlog_bytes(self) -> int:
        return sum(p.buffered_bytes for p in self.proxies)


def build_split_tcp_path(
    sim: Simulator,
    rng,
    hops: Sequence,
    cc: CCSpec,
    stream: Optional[ByteStream] = None,
    recorder: Optional[FlowRecorder] = None,
    mss: int = DEFAULT_MSS,
    flow_base: str = "split",
) -> SplitTcpPath:
    """Create sender, N-1 proxies, receiver and wire them over ``hops``.

    ``hops`` is a sequence of :class:`~repro.netsim.topology.HopSpec`; hop
    ``i`` carries the ``i``-th per-hop TCP connection.  End-to-end
    deliveries land in ``recorder`` (default: a fresh one named
    ``flow_base``).
    """
    from repro.netsim.topology import build_chain

    n = len(hops)
    if n < 1:
        raise ValueError("need at least one hop")
    if recorder is None:
        recorder = FlowRecorder(sim, name=flow_base)
    sender = TcpSender(
        sim, f"{flow_base}-snd", f"{flow_base}-p0" if n > 1 else f"{flow_base}-rcv",
        None, cc, stream=stream, mss=mss,
        flow_id=f"{flow_base}:hop0",
    )
    proxies = [
        SplitTcpProxy(
            sim, f"{flow_base}-p{i}",
            up_ack_link=None, down_data_link=None,
            cc=cc,
            next_hop_name=(f"{flow_base}-p{i+1}" if i + 1 < n - 1 else f"{flow_base}-rcv"),
            up_flow_id=f"{flow_base}:hop{i}",
            down_flow_id=f"{flow_base}:hop{i+1}",
            mss=mss,
        )
        for i in range(n - 1)
    ]
    receiver = TcpReceiver(
        sim, f"{flow_base}-rcv", out_link=None, recorder=recorder,
        flow_id=f"{flow_base}:hop{n-1}",
    )
    nodes = [sender, *proxies, receiver]
    links = build_chain(sim, nodes, list(hops), rng)
    # Wire outgoing links: data flows forward, ACKs flow backward per hop.
    sender.out_link = links[0].ab
    for i, proxy in enumerate(proxies):
        proxy.receiver.out_link = links[i].ba
        proxy.sender.out_link = links[i + 1].ab
    receiver.out_link = links[-1].ba
    return SplitTcpPath(sender, proxies, receiver, links, recorder)
