"""The LEOTP Producer: the data source.

The Producer answers Interests with Data.  It keeps no connection state —
only its own content and, in this reproduction, the first-transmission
timestamp of each byte range (stored in a :class:`BlockCache`) so
retransmitted data carries its original timestamp for end-to-end OWD
measurement, matching how the evaluation measures recovery delay.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from repro.common.ranges import ByteRange, RangeSet
from repro.core.cache import BlockCache
from repro.core.config import LeotpConfig
from repro.core.paced import PacedSender, ResendSuppressor
from repro.core.wire import DataPacket, Interest
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.obs.tracer import TRACER
from repro.simcore.simulator import Simulator


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
        self._senders: dict[str, PacedSender] = {}
        self._interest_owd: dict[str, float] = {}
        self._served: dict[str, RangeSet] = {}
        self._origins: dict[str, BlockCache] = {}
        # Ranges currently waiting in the sending buffer: duplicate
        # Interests (TR re-requests racing a queued response) are absorbed
        # instead of amplified.
        self._queued: dict[str, RangeSet] = {}
        # Re-serve damping (see ResendSuppressor): a range that left the
        # buffer moments ago is still in flight; serving it again during a
        # recovery storm only deepens the backlog that caused the timeouts.
        self._suppressors: dict[str, ResendSuppressor] = {}
        # Statistics (Fig. 11 measures "traffic the server actually sends").
        self.interests_received = 0
        self.wire_bytes_sent = 0
        self.data_packets_sent = 0
        self.retransmitted_packets = 0

    # ------------------------------------------------------------------

    def _sender_for(self, flow_id: str) -> PacedSender:
        sender = self._senders.get(flow_id)
        if sender is None:
            sender = PacedSender(
                self.sim,
                # partial over the bound method (not a lambda): flow state
                # must survive pickling for shard checkpoint/resume.
                stamp=partial(self._stamp, flow_id),
                paced=True,
                burst_bytes=3.0 * self.config.data_packet_bytes,
                name=f"{self.name}:{flow_id}",
            )
            self._senders[flow_id] = sender
        return sender

    def _stamp(self, flow_id: str, pkt: DataPacket) -> DataPacket:
        now = self.sim.now
        queued = self._queued.get(flow_id)
        if queued is not None:
            queued.remove(pkt.range)
        suppressor = self._suppressors.get(flow_id)
        if suppressor is not None:
            suppressor.record(pkt.range)
        origin = pkt.origin_ts if pkt.retransmitted else now
        if not pkt.retransmitted:
            self._origins.setdefault(
                flow_id,
                BlockCache(64 << 20, self.config.cache_block_bytes),
            ).store(flow_id, pkt.range, now)
        out = DataPacket(
            flow_id,
            pkt.range,
            timestamp=now,
            is_header=False,
            origin_ts=origin,
            echo_interest_owd=self._interest_owd.get(flow_id, 0.0),
            retransmitted=pkt.retransmitted,
        )
        self.wire_bytes_sent += out.size_bytes
        self.data_packets_sent += 1
        if out.retransmitted:
            self.retransmitted_packets += 1
        if TRACER.enabled:
            TRACER.emit(
                now, "data_send", self.name, flow=flow_id,
                start=out.range.start, end=out.range.end,
                retx=out.retransmitted,
            )
        return out

    def backlog_bytes(self, flow_id: str) -> int:
        sender = self._senders.get(flow_id)
        return sender.backlog_bytes if sender else 0

    def retire_flow(self, flow_id: str) -> None:
        """Release every per-flow structure of a completed flow.

        A Producer serving thousands of sequential flows (see
        :mod:`repro.workload`) would otherwise accumulate a sender, a
        served-RangeSet, and an origin cache per flow forever.  Stragglers
        (a TR re-request racing completion) simply rebuild fresh state.
        """
        sender = self._senders.pop(flow_id, None)
        if sender is not None:
            sender.reset()
        self._interest_owd.pop(flow_id, None)
        self._served.pop(flow_id, None)
        self._origins.pop(flow_id, None)
        self._queued.pop(flow_id, None)
        self._suppressors.pop(flow_id, None)

    # ------------------------------------------------------------------

    def on_receive(self, packet: Packet, link: Link) -> None:
        if not isinstance(packet, Interest):
            return
        self.interests_received += 1
        now = self.sim.now
        flow = packet.flow_id
        # Responder-side Interest OWD estimate (half of the hopRTT sample).
        owd = max(now - packet.timestamp, 0.0)
        prev = self._interest_owd.get(flow)
        self._interest_owd[flow] = owd if prev is None else prev + (owd - prev) / 8.0
        sender = self._sender_for(flow)
        sender.set_rate(packet.send_rate_bytes_s)
        reply_link = self._reply_link(link)
        served = self._served.setdefault(flow, RangeSet())
        rng = self._clip_to_content(packet.range)
        if rng is None:
            return
        queued = self._queued.setdefault(flow, RangeSet())
        suppressor = self._suppressors.get(flow)
        if suppressor is None:
            suppressor = self._suppressors[flow] = ResendSuppressor(
                self.sim, self.config.responder_retx_suppress_s
            )
        for chunk in rng.split(self.config.mss):
            if queued.contains(chunk):
                continue  # a response for this range is already queued
            retransmitted = served.contains(chunk)
            if retransmitted and suppressor.suppressed(
                chunk, sender.drain_time_s()
            ):
                continue  # a copy left the buffer moments ago
            origin_ts = now
            if retransmitted:
                origins = self._origins.get(flow)
                if origins is not None:
                    pieces = origins.lookup(flow, chunk)
                    if pieces:
                        origin_ts = min(ts for _, ts in pieces)
            else:
                served.add(chunk)
            proto = DataPacket(
                flow, chunk, timestamp=now,
                origin_ts=origin_ts, retransmitted=retransmitted,
            )
            # Mark as queued *before* enqueueing: the sender may drain (and
            # stamp/unmark) synchronously when tokens are available.
            queued.add(chunk)
            if not sender.enqueue(proto, reply_link):
                queued.remove(chunk)

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
