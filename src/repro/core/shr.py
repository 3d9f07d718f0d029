"""Sequence Hole Retransmission: the loss detector of Algorithm 1
(Sec. III-B; its latency benefit is the subject of Figs. 10-11).

Every node runs one :class:`SeqHoleDetector` per flow.  It tracks the
largest byte seen (``lastByte``) and a list of sequence holes.  Processing
one incoming packet (Data or VPH) yields two kinds of actions:

* ``announce``: new holes that must be advertised downstream as Void
  Packet Headers *before* the triggering packet is forwarded, so
  downstream nodes do not detect (and re-request) the same hole;
* ``request``: holes whose skip count crossed the disorder threshold N —
  the node should send a retransmission Interest upstream for them.

Receiving a VPH updates the bookkeeping exactly like data (the range is
"accounted for") but the caller must not cache or deliver it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.ranges import ByteRange


@dataclass
class _Hole:
    rng: ByteRange
    count: int = 0


@dataclass
class ShrActions:
    """What the caller must do after feeding one packet to the detector."""

    announce: list[ByteRange] = field(default_factory=list)
    request: list[ByteRange] = field(default_factory=list)


#: Shared result of the in-order case (read-only: callers only iterate).
_NO_ACTIONS = ShrActions()


class SeqHoleDetector:
    """Algorithm 1 (loss detection in SHR), over byte ranges."""

    def __init__(self, disorder_threshold: int = 3, max_holes: int = 1024) -> None:
        if disorder_threshold < 1:
            raise ValueError("disorder threshold must be >= 1")
        self.disorder_threshold = disorder_threshold
        self.max_holes = max_holes
        self.last_byte = 0
        self._holes: list[_Hole] = []
        self.holes_detected = 0
        self.requests_issued = 0
        # Unprimed until the first packet: a detector (re)created mid-flow
        # — a node joining the path, or one whose state was wiped by a
        # crash — adopts the first offset it observes as its baseline.
        # Treating everything before it as a hole would trigger a
        # wholesale re-fetch of the entire delivered prefix.
        self._primed = False

    @property
    def open_holes(self) -> list[ByteRange]:
        return [h.rng for h in self._holes]

    def on_packet(self, rng: ByteRange) -> ShrActions:
        """Feed one received packet (Data or VPH) through Algorithm 1."""
        rs, re = rng.start, rng.end
        if self._primed and not self._holes and rs <= self.last_byte:
            # In-order or late data with no hole open: cases (2) and (3)
            # have nothing to do, only the frontier can move.
            if re > self.last_byte:
                self.last_byte = re
            return _NO_ACTIONS
        actions = ShrActions()
        if not self._primed:
            self._primed = True
            self.last_byte = rs
        if rs > self.last_byte:
            # Case (2): a gap opened in front of this packet.
            hole = ByteRange(self.last_byte, rs)
            actions.announce.append(hole)
            self.holes_detected += 1
            if len(self._holes) < self.max_holes:
                self._holes.append(_Hole(hole))
        elif rs < self.last_byte:
            # Case (3): late/retransmitted data — drop overlapping holes.
            self._delete_overlapping(rng)
        # Update skip counts: every arrival beyond a hole's end is evidence
        # the hole is loss, not disorder.
        still_open: list[_Hole] = []
        for hole in self._holes:
            if rs > hole.rng.end:
                hole.count += 1
                if hole.count > self.disorder_threshold:
                    actions.request.append(hole.rng)
                    self.requests_issued += 1
                    continue  # hole removed: SHR does not track outcomes
            still_open.append(hole)
        self._holes = still_open
        self.last_byte = max(self.last_byte, re)
        return actions

    def _delete_overlapping(self, rng: ByteRange) -> None:
        remaining: list[_Hole] = []
        for hole in self._holes:
            if not hole.rng.overlaps(rng):
                remaining.append(hole)
                continue
            # Partially filled holes shrink to their uncovered pieces.
            if hole.rng.start < rng.start:
                remaining.append(
                    _Hole(ByteRange(hole.rng.start, rng.start), hole.count)
                )
            if rng.end < hole.rng.end:
                remaining.append(_Hole(ByteRange(rng.end, hole.rng.end), hole.count))
        self._holes = remaining
