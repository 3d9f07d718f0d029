"""Multicast extension: Interest aggregation and data fan-out (paper Sec. VII).

The paper observes that LEOTP's information-centric model gives multicast
"inherently": when several Consumers request the same content, Midnode
caches answer duplicate Interests locally, and pending duplicate
Interests can be *aggregated* so each piece of data crosses the upstream
path only once.  This module implements that discussion as a
:class:`MulticastMidnode`:

* a Pending Interest Table (PIT) records which downstream links asked
  for each in-flight range; duplicate Interests are absorbed instead of
  forwarded (retransmission Interests always pass — reliability first);
* arriving Data is fanned out to every PIT-registered downstream, each
  through its own paced sender;
* everything else (SHR, VPH, caching, hop congestion control) is
  inherited from the unicast :class:`~repro.core.midnode.Midnode`.

The PIT keys by *cache key*, not flow id: under a content workload
(:mod:`repro.content`) thousands of subscribers each run their own flow
against the same named object, their Interests aggregate, and fanned-out
copies are re-tagged with each subscriber's flow id so every Consumer
accepts its delivery.  Without a content registry the cache key is the
flow id and the classic shared-FlowID behaviour is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.common.ranges import ByteRange
from repro.core.config import LeotpConfig
from repro.core.midnode import Midnode
from repro.core.paced import PacedSender
from repro.core.wire import DataPacket, Interest
from repro.netsim.link import Link
from repro.simcore.simulator import Simulator


@dataclass
class _PitEntry:
    rng: ByteRange
    # (subscriber flow id, downstream link) per aggregated requester.
    downstreams: list[tuple[str, Link]] = field(default_factory=list)
    created_at: float = 0.0


class _FanoutStamp:
    """Per-(flow, link) stamp callback for fan-out senders (plain FIFOs):
    books each departing copy on the subscriber's own sender."""

    __slots__ = ("midnode", "flow_id")

    def __init__(self, midnode: "MulticastMidnode", flow_id: str) -> None:
        self.midnode = midnode
        self.flow_id = flow_id

    def __call__(self, pkt: DataPacket) -> DataPacket:
        state = self.midnode._flow(self.flow_id)
        state.sender.queued.remove(pkt.range)
        state.sender.guard.record(pkt.range)
        return self.midnode._stamp(state, pkt)


class MulticastMidnode(Midnode):
    """A Midnode that aggregates duplicate Interests and fans out Data."""

    PIT_TIMEOUT_S = 2.0

    def __init__(
        self, sim: Simulator, name: str, config: LeotpConfig = LeotpConfig()
    ) -> None:
        super().__init__(sim, name, config)
        # PIT: (cache_key, range_start) -> entry.  Ranges are MSS-chunked
        # at the Consumers, so exact-start matching covers the common case.
        self._pit: dict[tuple[str, int], _PitEntry] = {}
        # One paced sender per (flow, downstream link name) for fan-out.
        # Link names are deterministic (access links are named per flow),
        # so sender naming — and hence traces — is stable across runs.
        self._fanout_senders: dict[tuple[str, str], PacedSender] = {}
        self.interests_aggregated = 0
        self.fanout_packets = 0

    # ------------------------------------------------------------------

    def _fanout_sender(self, flow_id: str, link: Link) -> PacedSender:
        key = (flow_id, link.name)
        sender = self._fanout_senders.get(key)
        if sender is None:
            sender = PacedSender(
                self.sim,
                stamp=_FanoutStamp(self, flow_id),
                paced=self.config.hop_by_hop_cc,
                burst_bytes=3.0 * self.config.data_packet_bytes,
                name=f"{self.name}:{flow_id}:fanout:{link.name}",
                retx_suppress_s=None,
            )
            self._fanout_senders[key] = sender
        return sender

    def _on_interest(self, interest: Interest, link: Link) -> None:
        if interest.is_retransmission:
            # Recovery traffic never waits behind the PIT.
            super()._on_interest(interest, link)
            return
        cache_key = self._cache_key(interest.flow_id)
        key = (cache_key, interest.range.start)
        entry = self._pit.get(key)
        now = self.sim.now
        downstream = link.reply_link
        if (
            entry is not None
            and entry.rng == interest.range
            and now - entry.created_at < self.PIT_TIMEOUT_S
        ):
            # Another consumer already has this range in flight through us:
            # absorb the duplicate, remember who else wants the data.
            if downstream is not None:
                sub = (interest.flow_id, downstream)
                if sub not in entry.downstreams:
                    entry.downstreams.append(sub)
            self.interests_aggregated += 1
            # Keep per-downstream rate bookkeeping fresh.
            if self.config.hop_by_hop_cc and downstream is not None:
                self._fanout_sender(interest.flow_id, downstream).on_interest(
                    interest.timestamp, interest.send_rate_bytes_s
                )
            return
        # First request for this range: register and process normally
        # (cache answer or upstream forward).
        before_cache = self.cache.contains(cache_key, interest.range)
        if not before_cache and downstream is not None:
            self._pit[key] = _PitEntry(
                interest.range,
                [(interest.flow_id, downstream)],
                created_at=now,
            )
        super()._on_interest(interest, link)

    def _on_data(self, packet: DataPacket, link: Link) -> None:
        # Serve every PIT-registered downstream beyond the primary one.
        entry = self._pit.pop(
            (self._cache_key(packet.flow_id), packet.range.start), None
        )
        super()._on_data(packet, link)
        if packet.is_header or entry is None:
            return
        state = self._flow(packet.flow_id)
        primary: Optional[Link] = state.downstream_link
        for flow_id, downstream in entry.downstreams:
            if flow_id == packet.flow_id and downstream is primary:
                continue  # already served by the unicast path
            sender = self._fanout_sender(flow_id, downstream)
            self.fanout_packets += 1
            if flow_id == packet.flow_id:
                sender.enqueue(packet, downstream)
            else:
                # Cross-flow subscriber: re-tag the copy with *its* flow
                # id so its Consumer accepts the delivery.
                copy = DataPacket(
                    flow_id, packet.range, packet.timestamp,
                    origin_ts=packet.origin_ts,
                    echo_interest_owd=packet.echo_interest_owd,
                    retransmitted=packet.retransmitted,
                )
                sender.enqueue(copy, downstream)

    def crash(self) -> None:
        """Power-cycle: additionally drop the PIT and fan-out senders.

        The inherited crash clears ``_flows`` (whose senders the fan-out
        senders stamp through) but knows nothing of the multicast state;
        keeping it would leave PIT entries pointing at pre-crash ranges
        and senders pacing against stale congestion state.
        """
        for sender in self._fanout_senders.values():
            sender.reset()
        self._fanout_senders.clear()
        self._pit.clear()
        super().crash()
