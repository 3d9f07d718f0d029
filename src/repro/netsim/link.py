"""Unidirectional links with serialisation, propagation, loss, and queueing.

A :class:`Link` models what `tc netem`/Mininet emulate: a token-serialised
transmitter (``size*8/rate`` per packet), a fixed or mutable propagation
delay, Bernoulli packet loss, and a finite drop-tail byte queue.  Loss is
applied after serialisation (the bits were sent but corrupted en route),
which matches how loss interacts with queue occupancy on real links.
The Bernoulli draws are fetched from the link's generator 256 at a time
and handed out in order: the doubles scalar ``random()`` calls would
return, in the same order, at a twentieth of the cost — exact because
the stream has no other reader (one generator per link direction, true
of every topology builder and fault; DESIGN.md "Performance model").

``delay_s`` is a plain attribute so constellation drivers can retune it as
satellites move; packets already in flight keep the delay they departed
with, so a shrinking delay can reorder packets — a real LEO phenomenon the
protocols must tolerate.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from repro.netsim.bandwidth import BandwidthProfile
from repro.netsim.packet import Packet
from repro.obs.tracer import TRACER
from repro.simcore.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.node import Node


@dataclass
class LinkStats:
    """Counters a link accumulates over its lifetime."""

    packets_offered: int = 0
    packets_delivered: int = 0
    packets_dropped_queue: int = 0
    packets_dropped_loss: int = 0
    packets_dropped_flush: int = 0
    bytes_offered: int = 0
    bytes_delivered: int = 0
    busy_time_s: float = 0.0
    max_queue_bytes: int = 0

    def utilisation(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` spent transmitting."""
        return self.busy_time_s / elapsed_s if elapsed_s > 0 else 0.0


#: Loss draws fetched from a link's generator per refill.
_LOSS_DRAW_BLOCK = 256


def _trace_drop(link: "Link", packet: Packet, reason: str) -> None:
    """Emit one ``link_drop`` trace record (callers guard on TRACER.enabled)."""
    fields: dict = {"reason": reason, "kind": type(packet).__name__}
    flow_id = getattr(packet, "flow_id", None)
    if flow_id is not None:
        fields["flow"] = flow_id
    rng = getattr(packet, "range", None)
    if rng is not None:
        fields["start"] = rng.start
        fields["end"] = rng.end
    TRACER.emit(link.sim.now, "link_drop", link.name, **fields)


class Link:
    """One-way link from an implicit upstream sender to ``dst``.

    Args:
        sim: the shared simulator.
        dst: receiving node; delivered packets invoke ``dst.receive(pkt, self)``.
        rate_bps: fixed rate, ignored if ``profile`` is given.
        delay_s: one-way propagation delay; mutable at runtime.
        plr: Bernoulli loss probability per packet (applied post-serialisation).
        queue_bytes: drop-tail queue capacity (excluding the packet in
            transmission).  ``None`` means unbounded.
        rng: generator for loss draws; required when ``plr > 0``.
        profile: optional time-varying bandwidth profile.
        name: diagnostic label.
    """

    def __init__(
        self,
        sim: Simulator,
        dst: "Node",
        rate_bps: float = 10e6,
        delay_s: float = 0.01,
        plr: float = 0.0,
        queue_bytes: Optional[int] = 256_000,
        rng: Optional[np.random.Generator] = None,
        profile: Optional[BandwidthProfile] = None,
        name: str = "",
    ) -> None:
        if not 0 <= plr < 1:
            raise ValueError(f"plr must be in [0, 1), got {plr}")
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        if plr > 0 and rng is None:
            raise ValueError("a loss rng is required when plr > 0")
        self.sim = sim
        self.dst = dst
        self.profile = profile if profile is not None else BandwidthProfile(rate_bps)
        self.delay_s = delay_s
        self.plr = plr
        self.queue_bytes = queue_bytes
        self.name = name or f"link->{dst.name}"
        self.reply_link: Optional["Link"] = None  # set by DuplexLink
        self.stats = LinkStats()
        self.up = True  # set False to blackhole new packets (path switching)
        # Optional correlated-loss hook layered on top of the Bernoulli
        # draw: called once per serialised packet, returns True to drop it
        # (see repro.faults.loss.GilbertElliottLoss).
        self.loss_model: Optional[Callable[[Packet], bool]] = None
        self._rng = rng
        # Unread draws of the current block, next one last (module docstring).
        self._draws: list[float] = []
        self._queue: deque[Packet] = deque()
        self._queued_bytes = 0
        self._busy = False
        # In-flight deliveries are fire-and-forget (no Event objects): each
        # carries the flush generation it departed under, and bumping
        # ``_flush_gen`` invalidates the whole in-flight cohort at once —
        # batch cancellation without per-event handles or heap zombie scans.
        self._inflight_count = 0
        self._flush_gen = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def profile(self) -> BandwidthProfile:
        """The rate profile; a constant one's rate is read once, here."""
        return self._profile

    @profile.setter
    def profile(self, profile: BandwidthProfile) -> None:
        self._profile = profile
        # Serialisation reads this; None sends it to ``rate_at(now)``.
        self._const_rate_bps = (
            profile.base_rate_bps if type(profile) is BandwidthProfile else None
        )

    @property
    def queued_bytes(self) -> int:
        """Bytes waiting in the queue (excluding the packet being serialised)."""
        return self._queued_bytes

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.  Returns False if it was dropped
        immediately (queue overflow or link down)."""
        stats = self.stats
        size = packet.size_bytes
        stats.packets_offered += 1
        stats.bytes_offered += size
        if not self.up:
            stats.packets_dropped_flush += 1
            if TRACER.enabled:
                _trace_drop(self, packet, "down")
            return False
        if self._busy:
            if (
                self.queue_bytes is not None
                and self._queued_bytes + size > self.queue_bytes
            ):
                stats.packets_dropped_queue += 1
                if TRACER.enabled:
                    _trace_drop(self, packet, "queue")
                return False
            self._queue.append(packet)
            self._queued_bytes += size
            if self._queued_bytes > stats.max_queue_bytes:
                stats.max_queue_bytes = self._queued_bytes
            return True
        self._busy = True
        sim = self.sim
        rate = self._const_rate_bps or self._profile.rate_at(sim.now)
        tx_time = size * 8.0 / rate
        stats.busy_time_s += tx_time
        # Fire-and-forget: serialisation completions are never cancelled
        # (flush() only touches queued and in-flight packets).
        sim.schedule_call(tx_time, self._finish_transmission, packet)
        return True

    def flush(self, drop_inflight: bool = False) -> int:
        """Drop all queued packets (and optionally in-flight ones).

        Models path switching: packets buffered on a departing satellite are
        lost.  Returns the number of packets dropped.
        """
        dropped = len(self._queue)
        self.stats.packets_dropped_flush += dropped
        if TRACER.enabled:
            for pkt in self._queue:
                _trace_drop(self, pkt, "flush")
        self._queue.clear()
        self._queued_bytes = 0
        if drop_inflight:
            # Batch invalidation: every delivery scheduled under the old
            # generation becomes a no-op when it fires (see _deliver).
            dropped += self._inflight_count
            self.stats.packets_dropped_flush += self._inflight_count
            self._inflight_count = 0
            self._flush_gen += 1
        return dropped

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def set_loss(self, plr: float, rng: Optional[np.random.Generator] = None) -> None:
        """Retune the Bernoulli loss rate at runtime (fault injection).

        An rng is attached on demand so links built lossless (and therefore
        without a loss stream) can still have loss injected later.
        """
        if not 0 <= plr < 1:
            raise ValueError(f"plr must be in [0, 1), got {plr}")
        if rng is not None and rng is not self._rng:
            self._rng = rng
            self._draws.clear()  # they belong to the generator replaced
        if plr > 0 and self._rng is None:
            raise ValueError("a loss rng is required when plr > 0")
        self.plr = plr

    def _finish_transmission(self, packet: Packet) -> None:
        # The loss model is consulted for every packet (not only Bernoulli
        # survivors) so correlated processes observe every transmission.
        model = self.loss_model
        plr = self.plr
        stats = self.stats
        sim = self.sim
        lost = model is not None and model(packet)
        if not lost and plr > 0 and self._rng is not None:
            draws = self._draws
            if not draws:
                draws.extend(self._rng.random(_LOSS_DRAW_BLOCK)[::-1].tolist())
            lost = draws.pop() < plr
        if lost:
            stats.packets_dropped_loss += 1
            if TRACER.enabled:
                _trace_drop(self, packet, "loss")
        else:
            self._inflight_count += 1
            sim.schedule_call(self.delay_s, self._deliver, packet, self._flush_gen)
        # Pull the next packet from the queue, if any.
        if self._queue:
            nxt = self._queue.popleft()
            size = nxt.size_bytes
            self._queued_bytes -= size
            rate = self._const_rate_bps or self._profile.rate_at(sim.now)
            tx_time = size * 8.0 / rate
            stats.busy_time_s += tx_time
            sim.schedule_call(tx_time, self._finish_transmission, nxt)
        else:
            self._busy = False

    def _deliver(self, packet: Packet, gen: int) -> None:
        if gen != self._flush_gen:
            # Departed before a drop_inflight flush: already accounted as
            # dropped there.
            return
        self._inflight_count -= 1
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += packet.size_bytes
        self.dst.receive(packet, self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Link {self.name} q={self._queued_bytes}B busy={self._busy}>"


class DuplexLink:
    """A pair of independent unidirectional links between two nodes."""

    def __init__(
        self,
        sim: Simulator,
        node_a: "Node",
        node_b: "Node",
        rate_bps: float = 10e6,
        delay_s: float = 0.01,
        plr: float = 0.0,
        queue_bytes: Optional[int] = 256_000,
        rng_ab: Optional[np.random.Generator] = None,
        rng_ba: Optional[np.random.Generator] = None,
        profile_ab: Optional[BandwidthProfile] = None,
        profile_ba: Optional[BandwidthProfile] = None,
        name: str = "",
    ) -> None:
        label = name or f"{node_a.name}<->{node_b.name}"
        self.ab = Link(
            sim, node_b, rate_bps, delay_s, plr, queue_bytes,
            rng=rng_ab, profile=profile_ab, name=f"{label}:ab",
        )
        self.ba = Link(
            sim, node_a, rate_bps, delay_s, plr, queue_bytes,
            rng=rng_ba, profile=profile_ba, name=f"{label}:ba",
        )
        self.node_a = node_a
        self.node_b = node_b
        self.name = label
        # Receivers answer on the reverse direction of the same duplex;
        # protocols look this up instead of keeping routing tables.
        self.ab.reply_link = self.ba
        self.ba.reply_link = self.ab

    def set_delay(self, delay_s: float) -> None:
        """Update propagation delay in both directions."""
        self.ab.delay_s = delay_s
        self.ba.delay_s = delay_s

    def link_towards(self, node: "Node") -> Link:
        """The unidirectional link whose destination is ``node``."""
        if node is self.node_b:
            return self.ab
        if node is self.node_a:
            return self.ba
        raise ValueError(f"{node.name} is not an endpoint of {self.name}")
