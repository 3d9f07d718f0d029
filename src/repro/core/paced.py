"""The Responder's sending buffer: its copy decision and its drain loop.

Every node that responds with Data (Producer or Midnode) queues outgoing
packets per flow in a :class:`PacedSender`.  The drain rate is the
``sendRate`` piggybacked on the latest Interest from the downstream
Requester (paper Fig. 9); with hop-by-hop control disabled (ablation
row C) the buffer drains immediately and only endpoints pace.  A blocked
drain asks the bucket once and sleeps the wait it names.  The buffer
also decides which copies it takes, one rule for both Responders.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Callable, Optional

from repro.common.ranges import RangeSet
from repro.core.congestion import TokenBucket
from repro.core.wire import DataPacket
from repro.obs.tracer import TRACER
from repro.simcore.simulator import Simulator


class ResendSuppressor:
    """Remembers when byte ranges last left a sending buffer.

    A sending buffer books each departure here and asks before taking a
    re-serve: a copy that left less than one hopRTT ago is almost
    certainly still in flight, so serving another is pure amplification.
    The window is the caller's (the buffer's echoed hopRTT); what this
    suppresses is the recovery storm where every re-request re-serves
    bytes already on their way down, while an SHR that arrives a hopRTT
    after the loss finds its window closed.

    A range is keyed by one int, ``start << 32 | end``, and the guard is
    two parallel arrays sorted by key: the keys and the times they last
    left.  A flow's data leaves in offset order, so almost every record
    is an append; the rest (and every lookup) bisect.  An entry costs 16
    bytes and no Python object; at :attr:`MAX_ENTRIES` the guard clears.
    """

    MAX_ENTRIES = 8192
    #: Ranges must end below this offset: a key is one-to-one (and fits
    #: the unsigned 64-bit key array) only while ``end`` fits in 32 bits
    #: (a 4 GiB flow).
    MAX_OFFSET = 1 << 32

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._keys = array("Q")
        self._times = array("d")  # ``_times[i]``: when ``_keys[i]`` left

    def record(self, rng) -> None:
        end = rng.end
        if end >= self.MAX_OFFSET:
            raise ValueError(
                f"range [{rng.start}, {end}) ends past the resend guard's "
                f"4 GiB limit (offsets must stay below 2**32)"
            )
        keys = self._keys
        if len(keys) >= self.MAX_ENTRIES:
            keys = self._keys = array("Q")
            self._times = array("d")
        key = rng.start << 32 | end
        if not keys or key > keys[-1]:
            keys.append(key)
            self._times.append(self.sim.now)
            return
        i = bisect_left(keys, key)
        if keys[i] == key:
            self._times[i] = self.sim.now
        else:
            keys.insert(i, key)
            self._times.insert(i, self.sim.now)

    def suppressed(self, rng, window_s: float) -> bool:
        """True if the last departure starting at or before ``rng`` covers
        it and left within ``window_s``.

        One bisect names that departure (the longest of equal starts); it
        covers ``rng`` when it ends at or past it, so a 4 KiB block piece
        matches the packet it was cut from.  An older, wider departure
        behind it is not consulted.
        """
        keys = self._keys
        i = bisect_right(keys, rng.start << 32 | 0xFFFFFFFF) - 1
        if i < 0 or keys[i] & 0xFFFFFFFF < rng.end:
            return False
        return self.sim.now - self._times[i] < window_s


class PacedSender:
    """A Responder's per-flow FIFO drained through a token bucket onto one
    link.  ``plain=True`` makes a FIFO that takes every copy (fan-out).

    A Responder's buffer suppresses a re-serve when the last departure
    starting at or before its range covers it and left within ``2 *``
    :attr:`interest_owd` (one echoed hopRTT).  The window is never read unsampled: every Responder folds the
    Interest it answers into :meth:`on_interest` before its first
    :meth:`enqueue`, so a sender rebuilt after a crash starts from a real
    sample, not 0.
    """

    def __init__(
        self,
        sim: Simulator,
        stamp: Callable[[DataPacket], DataPacket],
        paced: bool = True,
        initial_rate_bytes_s: float = 125_000.0,
        burst_bytes: float = 3000.0,
        max_buffer_bytes: int = 4 << 20,
        name: str = "paced",
        plain: bool = False,
    ) -> None:
        self.sim = sim
        self.name = name
        self.paced = paced
        self._stamp = stamp
        self.bucket = TokenBucket(sim, initial_rate_bytes_s, burst_bytes)
        self.max_buffer_bytes = max_buffer_bytes
        self._queue: deque[DataPacket] = deque()
        # Data ranges waiting here, and when each range last left
        # (DESIGN.md §6: duplicate absorption, re-serve damping).
        self.queued = None if plain else RangeSet()
        self.guard = None if plain else ResendSuppressor(sim)
        # The Interest OWD stamps echo (half a hopRTT sample): an EWMA whose
        # first sample has gain 1, every later one 1/8.
        self.interest_owd = 0.0
        self._owd_gain = 1.0
        # Current sending-buffer length (the BL of equation (9)).  A plain
        # attribute, like ``Simulator.now``: the hop controller reads it
        # per forwarded Interest; only this class writes it.
        self.backlog_bytes = 0
        self._link = None
        # Drain ticks are fire-and-forget kernel events (no Event handle
        # allocated per packet); a generation counter invalidates pending
        # ticks on reset() instead of cancelling them.
        self._drain_scheduled = False
        self._drain_gen = 0
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_dropped = 0
        self.max_backlog_bytes = 0  # high-water mark (buffer-bound invariant)

    # ------------------------------------------------------------------

    def on_interest(self, sent_at: float, rate_bytes_s: float) -> None:
        """Fold one Interest's delay into :attr:`interest_owd`; a paced
        buffer also drains at its piggybacked ``sendRate`` from now on."""
        owd = self.sim.now - sent_at
        if owd < 0.0:
            owd = 0.0
        self.interest_owd += (owd - self.interest_owd) * self._owd_gain
        self._owd_gain = 0.125
        if self.paced:
            self.bucket.set_rate(rate_bytes_s if rate_bytes_s > 1.0 else 1.0)

    def enqueue(
        self, packet: DataPacket, link, reserve: bool = False
    ) -> Optional[bool]:
        """Queue ``packet`` on ``link`` unless the buffer has this copy.

        Data whose range is all queued is absorbed; a ``reserve`` (a
        Responder answering again from what it holds) is suppressed when
        the last departure starting at or before its range covers it and
        left within one echoed hopRTT; VPHs always pass.  Returns None
        for a copy not taken, False on overflow, True when taken.  A
        packet taken by an empty buffer whose bucket pays leaves at once;
        otherwise it queues.  The link is remembered: drains use the most
        recent one (a per-flow sender has one neighbour).
        """
        queued = self.queued
        data = queued is not None and not packet.is_header
        queue = self._queue
        if data:
            rng = packet.range
            if queue and queued.contains(rng):
                return None  # a copy is already queued
            if reserve and self.guard.suppressed(rng, 2.0 * self.interest_owd):
                return None  # a copy left moments ago
        self._link = link
        size = packet.size_bytes
        backlog = self.backlog_bytes + size
        if backlog > self.max_buffer_bytes:
            self.packets_dropped += 1
            if TRACER.enabled:
                TRACER.emit(
                    self.sim.now, "buffer_drop", self.name,
                    flow=packet.flow_id, start=packet.range.start,
                    end=packet.range.end, backlog=self.backlog_bytes,
                )
            return False
        if backlog > self.max_backlog_bytes:
            self.max_backlog_bytes = backlog
        if not queue and (not self.paced or self.bucket.take(size) == 0.0):
            # Nothing queued to absorb a copy or to wait behind: it leaves.
            if data:
                self.guard.record(rng)
            self.packets_sent += 1
            self.bytes_sent += size
            link.send(self._stamp(packet))
            return True
        if data:
            queued.add(rng)
        queue.append(packet)
        self.backlog_bytes = backlog
        self._drain()
        return True

    def reset(self) -> int:
        """Discard the buffer and cancel any pending drain (node crash).

        Returns the number of packets thrown away.
        """
        dropped = len(self._queue)
        self.packets_dropped += dropped
        self._queue.clear()
        if self.queued is not None:
            self.queued = RangeSet()  # an empty buffer holds no copy
        self.backlog_bytes = 0
        self._drain_gen += 1  # any in-flight drain tick becomes stale
        self._drain_scheduled = False
        return dropped

    def release(self) -> int:
        """:meth:`reset` for an owner that is discarding this sender.

        Also drops the stamp callback, the sender's one pointer back to
        its owner's flow state, so that state is freed by reference count
        when the owner lets go instead of waiting for the cycle collector
        (a stale drain tick may still hold the emptied sender; it never
        stamps).
        """
        self._stamp = None
        return self.reset()

    # ------------------------------------------------------------------

    def _drain(self) -> None:
        queue = self._queue
        while queue:
            pkt = queue[0]
            if self.paced:
                wait = self.bucket.take(pkt.size_bytes)
                if wait > 0.0:
                    if not self._drain_scheduled:
                        self._drain_scheduled = True
                        self.sim.schedule_call(
                            wait if wait > 1e-6 else 1e-6,
                            self._drain_tick, self._drain_gen,
                        )
                    return
            queue.popleft()
            self.backlog_bytes -= pkt.size_bytes
            if not pkt.is_header and self.queued is not None:
                self.queued.remove(pkt.range)  # booked before the stamp
                self.guard.record(pkt.range)
            self.packets_sent += 1
            self.bytes_sent += pkt.size_bytes
            assert self._link is not None
            self._link.send(self._stamp(pkt))

    def _drain_tick(self, gen: int) -> None:
        if gen != self._drain_gen:
            return  # stale tick from before a reset()
        self._drain_scheduled = False
        self._drain()
