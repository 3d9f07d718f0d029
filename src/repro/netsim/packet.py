"""Base packet type carried by the network substrate.

Protocol layers (:mod:`repro.tcp`, :mod:`repro.core`) subclass
:class:`Packet` and add their own header fields.  The substrate only cares
about ``size_bytes`` (for serialisation delay and queue occupancy) and the
addressing fields used by routers.
"""

from __future__ import annotations

import itertools
from typing import Optional

_packet_ids = itertools.count()

#: Allocate the next packet uid.  Exposed for subclasses that flatten the
#: constructor chain on per-packet hot paths (see repro.core.wire).
next_packet_uid = _packet_ids.__next__


class Packet:
    """A unit of transmission.

    Attributes:
        size_bytes: on-the-wire size, including protocol headers.
        src: name of the originating node (used by routers; optional).
        dst: name of the destination node (used by routers; optional).
        created_at: simulated time the packet object was created.  A
            forwarded packet keeps its object, so this is the origin's
            time, not the hop's.  Nothing reads it.
        uid: globally unique packet id (diagnostics only): one per packet
            a node originates; a node that forwards a packet re-stamps the
            same object, so the id survives every hop.
    """

    __slots__ = ("size_bytes", "src", "dst", "created_at", "uid")

    def __init__(
        self,
        size_bytes: int,
        src: Optional[str] = None,
        dst: Optional[str] = None,
        created_at: float = 0.0,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.size_bytes = size_bytes
        self.src = src
        self.dst = dst
        self.created_at = created_at
        self.uid = next(_packet_ids)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<{type(self).__name__} uid={self.uid} {self.src}->{self.dst} "
            f"{self.size_bytes}B>"
        )
