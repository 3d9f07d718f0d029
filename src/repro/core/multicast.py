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
  through its own paced sender and as its own copy (a queued packet has
  one owner, which re-stamps it as it leaves);
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
from functools import partial
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
                stamp=partial(self._fanout_stamp, flow_id),
                paced=self.config.hop_by_hop_cc,
                burst_bytes=3.0 * self.config.data_packet_bytes,
                name=f"{self.name}:{flow_id}:fanout:{link.name}",
                plain=True,
            )
            self._fanout_senders[key] = sender
        return sender

    def _fanout_stamp(self, flow_id: str, pkt: DataPacket) -> DataPacket:
        # A copy leaves on its own face, so it is booked on no other sender
        # (the subscriber's primary sender may still hold the range queued).
        return self._stamp(self._flow(flow_id), pkt)

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
        if packet.is_header or entry is None:
            super()._on_data(packet, link)
            return
        # The primary sender owns ``packet`` and may send (re-stamp) it
        # at once, so the copies are built from the fields as received.
        own_flow, rng, ts = packet.flow_id, packet.range, packet.timestamp
        origin_ts, owd = packet.origin_ts, packet.echo_interest_owd
        retransmitted = packet.retransmitted
        super()._on_data(packet, link)
        primary: Optional[Link] = self._flow(own_flow).downstream_link
        for flow_id, downstream in entry.downstreams:
            if flow_id == own_flow and downstream is primary:
                continue  # already served by the unicast path
            self.fanout_packets += 1
            # Each face gets a copy of its own, tagged with its
            # subscriber's flow id so that Consumer accepts it.
            self._fanout_sender(flow_id, downstream).enqueue(
                DataPacket(
                    flow_id, rng, ts, origin_ts=origin_ts,
                    echo_interest_owd=owd, retransmitted=retransmitted,
                ),
                downstream,
            )

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
