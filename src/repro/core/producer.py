"""The LEOTP Producer: the data source.

The Producer answers Interests with Data.  It keeps no connection state —
only its own content and, in this reproduction, the first-transmission
timestamp of each byte range (stored in a :class:`BlockCache`) so
retransmitted data carries its original timestamp for end-to-end OWD
measurement, matching how the evaluation measures recovery delay.  Which
copies leave is its sending buffer's decision (:class:`PacedSender`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from repro.common.ranges import ByteRange, RangeSet
from repro.core.cache import BlockCache
from repro.core.config import LeotpConfig
from repro.core.paced import PacedSender
from repro.core.wire import DataPacket, Interest
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.obs.tracer import TRACER
from repro.simcore.simulator import Simulator


@dataclass(slots=True)
class _ProducerFlow:
    """Everything the Producer holds for one flow, built and dropped as one."""

    sender: PacedSender
    # First-transmission timestamp of every byte range sent.
    origins: BlockCache
    served: RangeSet = field(default_factory=RangeSet)


class Producer(Node):
    """A LEOTP data source serving one or more flows."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: LeotpConfig = LeotpConfig(),
        content_bytes: Optional[int] = None,
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        self.content_bytes = content_bytes  # None = unbounded content
        self._flows: dict[str, _ProducerFlow] = {}
        # Statistics (Fig. 11 measures "traffic the server actually sends").
        self.interests_received = 0
        self.wire_bytes_sent = 0
        self.data_packets_sent = 0
        self.retransmitted_packets = 0

    # ------------------------------------------------------------------

    def _flow(self, flow_id: str) -> _ProducerFlow:
        flow = self._flows.get(flow_id)
        if flow is None:
            cfg = self.config
            flow = self._flows[flow_id] = _ProducerFlow(
                PacedSender(
                    self.sim,
                    stamp=partial(self._stamp, flow_id),
                    paced=True,
                    burst_bytes=3.0 * cfg.data_packet_bytes,
                    name=f"{self.name}:{flow_id}",
                ),
                BlockCache(64 << 20, cfg.cache_block_bytes),
            )
        return flow

    def _stamp(self, flow_id: str, pkt: DataPacket) -> DataPacket:
        """Stamp the departing proto packet in place (its sender owns it)."""
        now = self.sim.now
        rng = pkt.range
        retransmitted = pkt.retransmitted
        # A retired flow's sender is reset, so a live sender's flow exists.
        flow = self._flows[flow_id]
        if retransmitted:
            self.retransmitted_packets += 1
        else:
            pkt.origin_ts = now
            flow.origins.store(flow_id, rng, now)
        pkt.timestamp = now
        pkt.echo_interest_owd = flow.sender.interest_owd
        self.wire_bytes_sent += pkt.size_bytes
        self.data_packets_sent += 1
        if TRACER.enabled:
            TRACER.emit(
                now, "data_send", self.name, flow=flow_id,
                start=rng.start, end=rng.end, retx=retransmitted,
            )
        return pkt

    def backlog_bytes(self, flow_id: str) -> int:
        flow = self._flows.get(flow_id)
        return flow.sender.backlog_bytes if flow else 0

    def retire_flow(self, flow_id: str) -> None:
        """Release every per-flow structure of a completed flow.

        A Producer serving thousands of sequential flows (see
        :mod:`repro.workload`) would otherwise accumulate a sender, a
        served-RangeSet, and an origin cache per flow forever.  Stragglers
        (a TR re-request racing completion) simply rebuild fresh state.
        """
        flow = self._flows.pop(flow_id, None)
        if flow is not None:
            flow.sender.reset()

    # ------------------------------------------------------------------

    def on_receive(self, packet: Packet, link: Link) -> None:
        if not isinstance(packet, Interest):
            return
        self.interests_received += 1
        now = self.sim.now
        flow_id = packet.flow_id
        flow = self._flows.get(flow_id)
        if flow is None:
            flow = self._flow(flow_id)
        sender = flow.sender
        sender.on_interest(packet.timestamp, packet.send_rate_bytes_s)
        reply_link = self._reply_link(link)
        rng = self._clip_to_content(packet.range)
        if rng is None:
            return
        served = flow.served
        for chunk in rng.split(self.config.mss):
            retransmitted = served.contains(chunk)
            origin_ts = now
            if retransmitted:
                pieces = flow.origins.lookup(flow_id, chunk)
                if pieces:
                    origin_ts = min(ts for _, ts in pieces)
            else:
                served.add(chunk)
            proto = DataPacket(
                flow_id, chunk, timestamp=now,
                origin_ts=origin_ts, retransmitted=retransmitted,
            )
            sender.enqueue(proto, reply_link, reserve=retransmitted)

    def _clip_to_content(self, rng: ByteRange) -> Optional[ByteRange]:
        if self.content_bytes is None:
            return rng
        if rng.start >= self.content_bytes:
            return None
        return ByteRange(rng.start, min(rng.end, self.content_bytes))

    def _reply_link(self, in_link: Link):
        """The reverse link of the duplex this Interest arrived on."""
        reply = getattr(in_link, "reply_link", None)
        if reply is None:
            raise RuntimeError(
                f"producer {self.name}: incoming link {in_link.name} has no "
                "reply_link; wire the topology with attach_reply_links()"
            )
        return reply
