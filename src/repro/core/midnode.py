"""The LEOTP Midnode: cache, SHR loss repair, hop-by-hop rate control.

A Midnode is "dummy": it keeps only soft per-flow state (sequence
bookkeeping, a learned downstream link, congestion status) that can be
rebuilt instantly, which is what makes LEOTP robust to topology churn.
Dropping it is as cheap on the host: :meth:`Midnode.retire_flow` and
:meth:`Midnode.crash` release the flow's sender, which cuts the state's
only reference cycle (state -> sender -> stamp -> state), so everything
a flow held here is freed by reference count the moment it goes.

Data path (paper Figs. 7 and 9; :meth:`Midnode.receive` hands the two
wire types straight to their handler and each handler resolves the flow,
its state and the cache key once):

* **Interest from downstream** — remember the downstream link for the
  flow and hand the Interest to its sending buffer; answer from the
  cache when possible, otherwise forward the Interest upstream
  re-stamped with this node's own Requester rate.
* **Data/VPH from upstream** — feed SHR (Algorithm 1); emit VPHs
  downstream ahead of the packet for freshly detected holes; send
  retransmission Interests upstream for holes that crossed the disorder
  threshold; store payload in the cache; enqueue the packet on the
  downstream paced sender.  Whether a copy (a cache answer or a
  forwarded packet) is needed is the sender's decision.

Ablation flags: with ``enable_cache`` off the node skips SHR and caching
(row B of Table II); with ``hop_by_hop_cc`` off it forwards without
pacing and leaves the piggybacked rate untouched (row C).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.common.ranges import ByteRange, RangeSet
from repro.core.cache import BlockCache
from repro.core.config import LeotpConfig
from repro.core.congestion import HopRateController
from repro.core.paced import PacedSender
from repro.core.shr import SeqHoleDetector
from repro.core.wire import DataPacket, Interest
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.netsim.packet import Packet
from repro.obs.tracer import TRACER
from repro.simcore.simulator import Simulator


@dataclass
class _FlowState:
    """Soft per-flow state (tens of bytes in a real node).

    The sender's stamp callback carries this record, so :meth:`Midnode._flow`
    binds ``sender``, then the ``cc`` reading its backlog, after construction.
    """

    shr: SeqHoleDetector
    cc: HopRateController = None  # type: ignore[assignment]
    sender: PacedSender = None  # type: ignore[assignment]
    downstream_link: Optional[Link] = None
    upstream_link: Optional[Link] = None
    last_downstream_rate: float = 125_000.0


@dataclass
class MidnodeStats:
    """Operation counters (also the Fig. 19 CPU-overhead proxy)."""

    interests_received: int = 0
    interests_forwarded: int = 0
    data_received: int = 0
    data_forwarded: int = 0
    vph_received: int = 0
    vph_sent: int = 0
    retx_interests_sent: int = 0
    cache_responses: int = 0
    crashes: int = 0

    def total_operations(self) -> int:
        return (
            self.interests_received
            + self.data_received
            + self.vph_received
            + self.vph_sent
            + self.retx_interests_sent
            + self.cache_responses
        )


class Midnode(Node):
    """An intermediate LEOTP node (ground station or satellite)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: LeotpConfig = LeotpConfig(),
    ) -> None:
        super().__init__(sim, name)
        self.config = config
        self.cache = BlockCache(config.cache_capacity_bytes, config.cache_block_bytes)
        # Optional flow→object binding (repro.content.ContentRegistry,
        # duck-typed to keep core import-light).  When set, cache keys
        # alias to object names so flows fetching the same named object
        # share blocks; wire/per-flow state stays keyed by flow id.
        self.content = None
        self._flows: dict[str, _FlowState] = {}
        self._upstream_default: Optional[Link] = None
        self._upstream_by_flow: dict[str, Link] = {}
        self.stats = MidnodeStats()

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def set_upstream(self, link: Link, flow_id: Optional[str] = None) -> None:
        """Declare the link toward the Producer (per flow or default).

        Downstream links are learned from arriving Interests, mirroring
        ICN breadcrumb forwarding; the upstream direction corresponds to
        the routing layer's next hop and is configured by the topology.
        """
        if flow_id is None:
            self._upstream_default = link
        else:
            self._upstream_by_flow[flow_id] = link

    def _upstream_for(self, flow_id: str) -> Link:
        link = self._upstream_by_flow.get(flow_id, self._upstream_default)
        if link is None:
            raise RuntimeError(f"midnode {self.name}: no upstream link configured")
        return link

    # ------------------------------------------------------------------
    # Crash / restart (fault injection)
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Power-cycle the node: drop the cache and all per-flow soft state.

        This is the scenario the paper's "dummy intermediate node" design
        targets — everything a Midnode knows (cache contents, learned
        downstream links, OWD estimates, congestion state, queued packets)
        can vanish mid-transfer and be rebuilt from subsequent traffic.
        Upstream wiring survives: it belongs to the routing layer, which
        re-establishes next hops independently of the transport.
        """
        super().crash()
        self.stats.crashes += 1
        if TRACER.enabled:
            TRACER.emit(
                self.sim.now, "node_crash", self.name,
                cache_bytes_lost=self.cache.stored_bytes,
                flows_lost=len(self._flows),
            )
        for state in self._flows.values():
            state.sender.release()
        self._flows.clear()
        # Emptied in place: the cache keeps its geometry (capacity may have
        # been sized by a placement policy) and, under a flow pool, its
        # place in the shared pool's accounting.
        self.cache.clear()

    # ------------------------------------------------------------------

    def _flow(self, flow_id: str) -> _FlowState:
        state = self._flows.get(flow_id)
        if state is None:
            cfg = self.config
            state = _FlowState(
                shr=SeqHoleDetector(cfg.shr_disorder_threshold, cfg.shr_max_holes),
            )
            state.sender = PacedSender(
                self.sim,
                stamp=partial(self._stamp, state),
                paced=cfg.hop_by_hop_cc,
                burst_bytes=3.0 * cfg.data_packet_bytes,
                name=f"{self.name}:{flow_id}",
                retx_suppress_s=cfg.responder_retx_suppress_s,
            )
            state.cc = HopRateController(
                self.sim, cfg,
                sender=state.sender,
                name=f"{self.name}:{flow_id}:cc",
            )
            self._flows[flow_id] = state
        return state

    def _cache_key(self, flow_id: str) -> str:
        """Cache key for a flow: its bound object name, else the flow id."""
        content = self.content
        if content is None:
            return flow_id
        obj = content.object_of(flow_id)
        return obj if obj is not None else flow_id

    def retire_flow(self, flow_id: str) -> int:
        """Drop a completed flow's soft state and cached blocks.

        Returns the cache bytes freed.  Flow pools call this when the
        Consumer finishes so that a long-lived Midnode serving thousands
        of flows does not accumulate per-flow state; a straggler Interest
        simply rebuilds the (soft) state from scratch.

        Content-bound flows keep their blocks: the bytes live under the
        *object's* cache key and serving them to later consumers of the
        same object is the point of the cache — eviction pressure, not
        flow lifetime, reclaims them.
        """
        state = self._flows.pop(flow_id, None)
        if state is not None:
            state.sender.release()
        self._upstream_by_flow.pop(flow_id, None)
        if self.config.enable_cache:
            content = self.content
            if content is not None and content.object_of(flow_id) is not None:
                return 0
            return self.cache.drop_flow(flow_id)
        return 0

    def _stamp(self, state: _FlowState, pkt: DataPacket) -> DataPacket:
        if pkt.is_header:
            self.stats.vph_sent += 1
        else:
            self.stats.data_forwarded += 1
        if self.config.hop_by_hop_cc:
            return pkt.forwarded(self.sim.now, state.sender.interest_owd)
        # Endpoint-only control (ablation row C): timestamps survive
        # end-to-end so the Consumer measures the full path.
        return pkt.forwarded(pkt.timestamp, pkt.echo_interest_owd)

    # ------------------------------------------------------------------
    # Receive dispatch
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, link: Link) -> None:
        """:meth:`Node.receive` with the LEOTP dispatch folded in: the two
        wire types go straight to their handler, one frame per packet."""
        if self.crashed:
            self.packets_dropped_crashed += 1
            return
        self.packets_received += 1
        kind = type(packet)
        if kind is DataPacket:
            self._on_data(packet, link)
        elif kind is Interest:
            self._on_interest(packet, link)
        else:
            self.on_receive(packet, link)

    def on_receive(self, packet: Packet, link: Link) -> None:
        """Subclasses of the wire types; any other packet is ignored."""
        if isinstance(packet, Interest):
            self._on_interest(packet, link)
        elif isinstance(packet, DataPacket):
            self._on_data(packet, link)

    # ------------------------------------------------------------------
    # Interests (from downstream)
    # ------------------------------------------------------------------

    def _on_interest(self, interest: Interest, link: Link) -> None:
        cfg = self.config
        now = self.sim.now
        stats = self.stats
        stats.interests_received += 1
        flow_id = interest.flow_id
        rng = interest.range
        rate = interest.send_rate_bytes_s
        hop_cc = cfg.hop_by_hop_cc
        state = self._flows.get(flow_id)
        if state is None:
            state = self._flow(flow_id)
        # Learn the downstream route (ICN breadcrumb).
        if link.reply_link is not None:
            state.downstream_link = link.reply_link
        # Responder-side measurements for this hop.
        state.sender.on_interest(interest.timestamp, rate)
        state.last_downstream_rate = rate
        if hop_cc:
            state.cc.next_hop_rate_bytes_s = rate
        # Answer from the cache where possible.  The lookup key aliases
        # to the flow's object name under a content workload, so bytes
        # another flow fetched for the same object count as hits here.
        remaining: list[ByteRange] = [rng]
        if cfg.enable_cache:
            cache = self.cache
            cross_mark = cache.stats.cross_hit_bytes
            pieces = cache.lookup(
                flow_id if self.content is None else self._cache_key(flow_id),
                rng, requester=flow_id,
            )
            if pieces:
                covered = []
                sender = state.sender
                downstream = state.downstream_link
                for piece, origin_ts in pieces:
                    covered.append(piece)
                    response = DataPacket(
                        flow_id, piece, timestamp=now,
                        origin_ts=origin_ts, retransmitted=True,
                    )
                    # Counted unless the buffer absorbs or suppresses it.
                    if downstream is None or sender.enqueue(
                        response, downstream, reserve=True
                    ) is not None:
                        stats.cache_responses += 1
                remaining = self._subtract(rng, covered)
            if TRACER.enabled:
                miss_bytes = sum(r.length for r in remaining)
                hit_bytes = rng.length - miss_bytes
                TRACER.emit(
                    now, "cache_hit" if hit_bytes > 0 else "cache_miss",
                    self.name, flow=flow_id, start=rng.start, end=rng.end,
                    hit_bytes=hit_bytes, miss_bytes=miss_bytes,
                    cross_bytes=cache.stats.cross_hit_bytes - cross_mark,
                )
        # Forward the uncovered remainder upstream, re-stamped with this
        # node's own Requester rate.
        upstream = state.upstream_link = self._upstream_for(flow_id)
        if not remaining:
            return
        if hop_cc:
            rate = state.cc.sending_rate_bytes_s()
            ts = now
        else:
            ts = interest.timestamp  # endpoint-measured path (row C)
        retx = interest.is_retransmission
        for piece in remaining:
            stats.interests_forwarded += 1
            upstream.send(Interest(flow_id, piece, ts, rate, retx))

    @staticmethod
    def _subtract(total: ByteRange, covered: list[ByteRange]) -> list[ByteRange]:
        remaining = RangeSet([total])
        for rng in covered:
            remaining.remove(rng)
        return remaining.intervals()

    # ------------------------------------------------------------------
    # Data and VPHs (from upstream)
    # ------------------------------------------------------------------

    def _on_data(self, packet: DataPacket, link: Link) -> None:
        cfg = self.config
        now = self.sim.now
        flow_id = packet.flow_id
        rng = packet.range
        is_header = packet.is_header
        state = self._flows.get(flow_id)
        if state is None:
            state = self._flow(flow_id)
        if is_header:
            self.stats.vph_received += 1
        else:
            self.stats.data_received += 1
            # Requester-side hopRTT sample for the upstream hop.
            if cfg.hop_by_hop_cc:
                sample = now - packet.timestamp
                if sample < 0.0:
                    sample = 0.0
                sample += packet.echo_interest_owd
                if sample > 0:
                    state.cc.on_data(rng.end - rng.start, sample)
        downstream = state.downstream_link
        if cfg.enable_cache:
            actions = state.shr.on_packet(rng)
            # VPHs go downstream ahead of the triggering packet.
            if cfg.enable_vph:
                for hole in actions.announce:
                    if TRACER.enabled:
                        TRACER.emit(
                            now, "vph_send", self.name, flow=flow_id,
                            start=hole.start, end=hole.end,
                        )
                    vph = DataPacket(flow_id, hole, timestamp=now, is_header=True)
                    if downstream is not None:
                        state.sender.enqueue(vph, downstream)
            # Confirmed holes are re-requested from the upstream neighbour.
            for hole in actions.request:
                self._send_retx_interest(state, flow_id, hole)
            if not is_header:
                self.cache.store(
                    flow_id if self.content is None else self._cache_key(flow_id),
                    rng, packet.origin_ts, writer=flow_id,
                )
        if downstream is None:
            return
        state.sender.enqueue(packet, downstream)

    def _send_retx_interest(
        self, state: _FlowState, flow_id: str, hole: ByteRange
    ) -> None:
        upstream = state.upstream_link or self._upstream_for(flow_id)
        rate = (
            state.cc.sending_rate_bytes_s()
            if self.config.hop_by_hop_cc
            else state.last_downstream_rate
        )
        if TRACER.enabled:
            TRACER.emit(
                self.sim.now, "retx_interest", self.name, flow=flow_id,
                start=hole.start, end=hole.end,
            )
        for chunk in hole.split(self.config.mss):
            interest = Interest(
                flow_id, chunk, timestamp=self.sim.now,
                send_rate_bytes_s=rate, is_retransmission=True,
            )
            self.stats.retx_interests_sent += 1
            upstream.send(interest)
