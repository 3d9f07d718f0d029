"""LEOTP wire formats: Interest and Data packets (Table I of the paper).

Both packet kinds carry the data name ``(FlowID, [rangeStart, rangeEnd))``
and a ``timestamp`` written by the node that (re)transmits the packet on
the current hop — the input to per-hop OWD measurement.  A forwarding
node rewrites these header fields in the object it received (a queued
packet has one owner), so a packet is built once, where it originates.
Interests
additionally piggyback the Requester's ``send_rate``; Data packets whose
``is_header`` flag is set are Void Packet Headers (VPH): a 15-byte
header with ``length = 0`` used as a hole notification.

The paper's header is 15 bytes; packets ride in UDP/IPv4 (+28 bytes).
Python-side convenience fields (``origin_ts``, ``echo_interest_owd``,
``retransmitted``) correspond to information a real implementation either
derives locally or encodes in the timestamp/rate fields.
"""

from __future__ import annotations

from typing import Optional

from repro.common.ranges import ByteRange
from repro.core.config import LEOTP_HEADER_BYTES, UDP_IP_OVERHEAD_BYTES
from repro.netsim.packet import Packet, next_packet_uid

# Every Interest (and every VPH) is exactly one header on the wire; Data
# adds its payload.  Precomputed once — these constructors run per packet.
_WIRE_HEADER_BYTES = LEOTP_HEADER_BYTES + UDP_IP_OVERHEAD_BYTES


class LeotpPacket(Packet):
    """Common base: a named byte range of a flow."""

    __slots__ = ("flow_id", "range", "timestamp")

    def __init__(
        self,
        flow_id: str,
        rng: ByteRange,
        size_bytes: int,
        timestamp: float,
        src: Optional[str] = None,
        dst: Optional[str] = None,
    ) -> None:
        super().__init__(size_bytes=size_bytes, src=src, dst=dst, created_at=timestamp)
        self.flow_id = flow_id
        self.range = rng
        self.timestamp = timestamp


class Interest(LeotpPacket):
    """A data request, flowing Consumer -> Producer.

    ``send_rate_bytes_s`` tells the Responder of this hop how fast to send
    Data (token-bucket input); ``is_retransmission`` marks SHR/TR re-requests
    (statistics only — the wire format is identical).
    """

    __slots__ = ("send_rate_bytes_s", "is_retransmission")

    def __init__(
        self,
        flow_id: str,
        rng: ByteRange,
        timestamp: float,
        send_rate_bytes_s: float,
        is_retransmission: bool = False,
    ) -> None:
        # Flattened constructor (no super() chain): one of the two
        # per-packet allocation sites on the wire hot path.
        self.size_bytes = _WIRE_HEADER_BYTES
        self.src = None
        self.dst = None
        self.created_at = timestamp
        self.uid = next_packet_uid()
        self.flow_id = flow_id
        self.range = rng
        self.timestamp = timestamp
        self.send_rate_bytes_s = send_rate_bytes_s
        self.is_retransmission = is_retransmission

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        retx = " retx" if self.is_retransmission else ""
        return f"<Interest {self.flow_id} {self.range}{retx}>"


class DataPacket(LeotpPacket):
    """A data response or a Void Packet Header, flowing Producer -> Consumer.

    Attributes:
        is_header: True for a VPH (``length = 0``, no payload).
        origin_ts: time the Producer first transmitted these bytes; used by
            the Consumer for end-to-end OWD measurement (survives caching).
        echo_interest_owd: the Responder's estimate of the Interest OWD on
            this hop, echoed so the Requester can assemble a full hopRTT
            sample (Sec. III-C's two-part measurement).
        retransmitted: True when this copy repairs a loss (served from a
            Midnode cache or re-served by the Producer).
    """

    __slots__ = ("is_header", "origin_ts", "echo_interest_owd", "retransmitted")

    def __init__(
        self,
        flow_id: str,
        rng: ByteRange,
        timestamp: float,
        is_header: bool = False,
        origin_ts: float = 0.0,
        echo_interest_owd: float = 0.0,
        retransmitted: bool = False,
    ) -> None:
        # Flattened constructor (no super() chain), as in Interest.
        self.size_bytes = (
            _WIRE_HEADER_BYTES if is_header
            else rng.end - rng.start + _WIRE_HEADER_BYTES
        )
        self.src = None
        self.dst = None
        self.created_at = timestamp
        self.uid = next_packet_uid()
        self.flow_id = flow_id
        self.range = rng
        self.timestamp = timestamp
        self.is_header = is_header
        self.origin_ts = origin_ts
        self.echo_interest_owd = echo_interest_owd
        self.retransmitted = retransmitted

    @property
    def payload_bytes(self) -> int:
        return 0 if self.is_header else self.range.length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "VPH" if self.is_header else "Data"
        retx = " retx" if self.retransmitted else ""
        return f"<{kind} {self.flow_id} {self.range}{retx}>"
