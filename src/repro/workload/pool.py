"""FlowPool: hundreds-to-thousands of flows multiplexed over one chain.

Single-flow experiments build one path per flow, each with its own
links and intermediate nodes.  A :class:`FlowPool` instead shares the
chain — one Producer and one row of Midnodes (LEOTP) or Routers (TCP
baselines) carry every flow — and manages per-flow lifecycle around it:

* **spawn** — a Consumer (or TCP endpoint pair) is created at the flow's
  arrival time and attached to the shared hub through its own access
  link, subject to memory-budget admission;
* **complete** — the flow's record is finalised and its soft state is
  *retired* from every shared node (``retire_flow``), so long runs do
  not accumulate per-flow state;
* **abort** — flows still unfinished at :meth:`finalize` are marked
  aborted (and counted, never silently dropped).

Memory is governed by a :class:`~repro.workload.budget.MemoryBudget`:
Midnode caches draw from one :class:`~repro.workload.budget.
SharedCachePool` sized to a fraction of the ceiling, per-flow soft state
is charged to a ``flows`` account, and arrivals that would overflow the
flow share are rejected at admission — the ceiling is a hard bound, not
a hint.

Everything is deterministic per seed: arrivals come from a named RNG
stream, spawn order follows the demand list, and eviction order in the
shared cache pool is tie-broken by registration index.

Per-flow bookkeeping is struct-of-arrays: one slot per arrival across
parallel arrays (ids, timestamps, status bytes, interned abort reasons)
instead of a :class:`~repro.workload.metrics.FlowRecord` object per flow.
At 10⁴–10⁵ flows this cuts live-object count and per-flow overhead to a
few tens of bytes; :attr:`FlowPool.records` materialises the familiar
record objects on demand (and caches them until the next mutation).
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Optional, Sequence, Union

from repro.content.catalog import object_name
from repro.content.placement import CachePolicy, placement_weights
from repro.content.registry import ContentRegistry
from repro.core.config import LeotpConfig
from repro.core.consumer import Consumer
from repro.core.midnode import Midnode
from repro.core.producer import Producer
from repro.netsim.link import DuplexLink
from repro.netsim.node import Router
from repro.netsim.topology import HopSpec, build_chain
from repro.netsim.trace import FlowRecorder
from repro.obs.metrics import METRICS
from repro.simcore.process import TimelineProcess
from repro.simcore.random import RngRegistry
from repro.simcore.simulator import Simulator
from repro.tcp.cc import CCSpec, as_cc_spec
from repro.tcp.connection import (
    FiniteStream,
    TcpReceiver,
    TcpSender,
    make_tcp_sender,
)
from repro.workload.arrivals import FlowDemand, WorkloadSpec, generate_demands
from repro.workload.budget import MemoryBudget, SharedCachePool
from repro.workload.metrics import FairnessTracker, FlowRecord

#: Estimated soft-state bytes one flow pins on one responder node
#: (SHR detector, rate controller, learned links, range bookkeeping).
FLOW_STATE_BYTES_PER_NODE = 512

#: Protocols the pool can multiplex.  ``"leotp"`` shares Midnodes;
#: anything else is treated as a TCP congestion-control name and shares
#: a router chain.
LEOTP = "leotp"

# Flow status bytes in the pool's struct-of-arrays bookkeeping.
_LIVE = 0
_COMPLETED = 1
_ABORTED = 2


class FlowPool:
    """Spawns, multiplexes, and retires many flows over one shared path."""

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        *,
        spec: WorkloadSpec,
        hops: Sequence[HopSpec],
        protocol: Union[str, CCSpec] = LEOTP,
        config: Optional[LeotpConfig] = None,
        memory_ceiling_bytes: int = 48 << 20,
        cache_fraction: float = 0.75,
        fairness_window_s: float = 1.0,
        access_rate_bps: float = 100e6,
        access_delay_s: float = 0.002,
        name: str = "pool",
        cache_policy: Optional[CachePolicy] = None,
        recorder: Optional[FlowRecorder] = None,
    ) -> None:
        if len(hops) < 1:
            raise ValueError("need at least one hop")
        if not 0.0 < cache_fraction < 1.0:
            raise ValueError("cache_fraction must be in (0, 1)")
        if not name:
            raise ValueError("pool name must be non-empty")
        # ``protocol`` is either the LEOTP marker or a TCP congestion
        # control selection (name or CCSpec).  The canonical *string*
        # stays on self.protocol (node names, run names, result rows);
        # the full spec (with params) rides on self.cc_spec.
        if isinstance(protocol, CCSpec):
            self.cc_spec: Optional[CCSpec] = protocol
            protocol = protocol.name
        elif protocol == LEOTP:
            self.cc_spec = None
        else:
            self.cc_spec = as_cc_spec(protocol)
        if cache_policy is not None and protocol != LEOTP:
            raise ValueError("cache_policy applies only to LEOTP pools")
        self.sim = sim
        self.rng = rng
        self.spec = spec
        self.protocol = protocol
        # ``name`` namespaces node names, flow ids, and the arrivals RNG
        # stream, so several pools (e.g. one per city pair under churn)
        # coexist in one simulator.  The default preserves the historic
        # single-pool names ("pool-prod", "w00042", "workload:arrivals")
        # bit-for-bit.
        self.name = name
        self._flow_prefix = "" if name == "pool" else f"{name}-"
        self.config = config if config is not None else LeotpConfig()
        self.access_rate_bps = access_rate_bps
        self.access_delay_s = access_delay_s
        self.budget = MemoryBudget(memory_ceiling_bytes)
        # Optional pool-wide delivery recorder: every flow's deliveries
        # land in one timeline, so recovery metrics (goodput dips around
        # handovers) apply to the aggregate exactly as to a single flow.
        self.recorder = recorder
        self.fairness = FairnessTracker(fairness_window_s)
        # Struct-of-arrays flow bookkeeping: slot i across these parallel
        # arrays is one arrival.  NaN in _finish_s means "still open".
        self._ids: list[str] = []
        self._arrival_s = array("d")
        self._size_b = array("q")
        self._start_s = array("d")
        self._finish_s = array("d")
        self._status = bytearray()
        self._reason_idx = bytearray()  # 0 = no reason; else 1+intern index
        self._reasons: list[str] = []   # interned abort reasons
        self._records_cache: Optional[list[FlowRecord]] = None
        self._live: dict[str, int] = {}  # flow_id -> slot index
        self._consumers: dict[str, Consumer] = {}  # live LEOTP endpoints
        self._delivered: dict[str, int] = {}  # TCP completion tracking
        self._tcp_senders: dict[str, TcpSender] = {}  # live TCP endpoints
        # Result streaming (sharded runs): closed slots spill to a JSONL
        # sink at epoch boundaries and leave the struct-of-arrays state,
        # keeping resident size proportional to *live* flows.  Summary
        # statistics for spilled flows accumulate in compact parallel
        # arrays, keyed by the flow's global slot index so the summary
        # recomputes in exactly the unspilled slot order (bit-identical
        # percentiles/means no matter when or whether slots spilled).
        self._result_sink = None  # duck-typed: .write(dict) / .flush()
        self._global_idx = array("q")   # per in-RAM slot: global index
        self._slots_created = 0
        self.spilled_flows = 0
        self._spilled_ids: list[str] = []   # for the finalize soft sweep
        self._acc_idx = array("q")      # spilled closed flows: global idx
        self._acc_fct = array("d")      # fct_s, NaN when not completed
        self._acc_goodput = array("d")  # goodput, NaN when undefined
        self._spilled_reasons: dict[str, int] = {}
        # Counters.
        self.arrivals = 0
        self.completed = 0
        self.aborted = 0
        self.delivered_bytes = 0
        self.admission_rejects = 0
        self.peak_concurrency = 0
        self._finalized = False

        arrivals_stream = (
            "workload:arrivals"
            if name == "pool"
            else f"workload:{name}:arrivals"
        )
        demands = generate_demands(spec, rng.stream(arrivals_stream))
        self._demands = demands
        self._next_demand = 0

        self.cache_policy = cache_policy
        if protocol == LEOTP:
            self._build_leotp_chain(hops)
            cache_capacity = int(memory_ceiling_bytes * cache_fraction)
            self.cache_pool: Optional[SharedCachePool] = SharedCachePool(
                cache_capacity,
                self.config.cache_block_bytes,
                budget=self.budget,
                account="cache",
                eviction=(
                    cache_policy.eviction
                    if cache_policy is not None
                    else "fullest"
                ),
            )
            for mid in self.midnodes:
                mid.cache = self.cache_pool.member()
            if cache_policy is not None:
                # Placement: partition the budget across chain positions.
                # Without a policy each member may use the whole budget
                # (the historic behaviour, preserved bit-for-bit).
                self.cache_pool.set_weights(placement_weights(
                    cache_policy.placement, len(self.midnodes)
                ))
            # Content workloads share cached blocks under object names:
            # one registry aliases every midnode's cache keys.
            self.content: Optional[ContentRegistry] = None
            if spec.content is not None:
                self.content = ContentRegistry()
                for mid in self.midnodes:
                    mid.content = self.content
            responders = len(self.midnodes) + 1  # + Producer
            self._flow_state_bytes = FLOW_STATE_BYTES_PER_NODE * responders
            self._flow_share_bytes = memory_ceiling_bytes - cache_capacity
        else:
            self._build_router_chain(hops)
            self.cache_pool = None
            self.content = None
            # A TCP flow pins state only at its endpoints plus one route
            # entry per router and direction.
            self._flow_state_bytes = (
                2 * FLOW_STATE_BYTES_PER_NODE + 64 * 2 * len(self.routers)
            )
            self._flow_share_bytes = memory_ceiling_bytes

        if spec.closed_loop:
            self._timeline: Optional[TimelineProcess] = None
            for _ in range(min(spec.target_concurrency, len(demands))):
                self._spawn_next()
        else:
            self._timeline = TimelineProcess(
                sim,
                [(d.arrival_s, i) for i, d in enumerate(demands)],
                self._spawn_index,
            )

    # ------------------------------------------------------------------
    # Shared-substrate construction
    # ------------------------------------------------------------------

    def _build_leotp_chain(self, hops: Sequence[HopSpec]) -> None:
        self.producer = Producer(
            self.sim, f"{self.name}-prod", self.config, content_bytes=None
        )
        self.midnodes = [
            Midnode(self.sim, f"{self.name}-mid{i}", self.config)
            for i in range(len(hops))
        ]
        nodes = [self.producer, *self.midnodes]
        self.links = build_chain(self.sim, nodes, list(hops), self.rng)
        for i, mid in enumerate(self.midnodes):
            mid.set_upstream(self.links[i].ba)
        # Every Consumer hangs off the last Midnode through its own access
        # link; the hub learns each flow's downstream from its Interests.
        self.hub = self.midnodes[-1]
        self.routers: list[Router] = []

    def _build_router_chain(self, hops: Sequence[HopSpec]) -> None:
        self.routers = [
            Router(self.sim, f"{self.name}-r{i}") for i in range(len(hops) + 1)
        ]
        self.links = build_chain(self.sim, self.routers, list(hops), self.rng)
        self.producer = None  # type: ignore[assignment]
        self.midnodes = []
        self.hub = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Spawning
    # ------------------------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._live)

    @property
    def pending_demands(self) -> int:
        return len(self._demands) - self._next_demand

    def backlog_bytes(self) -> int:
        """Total responder send-buffer backlog across the shared chain.

        The sharded engine (:mod:`repro.shard`) reports this as the
        shard's gateway backlog: bytes accepted by the chain's responders
        (Producer and Midnodes) but not yet handed to a link.  TCP pools
        report 0 — router queues belong to the links, not the pool.
        """
        if self.protocol != LEOTP:
            return 0
        total = 0
        for mid in self.midnodes:
            for state in mid._flows.values():
                total += state.sender.backlog_bytes
        for sender in self.producer._senders.values():
            total += sender.backlog_bytes
        return total

    def _spawn_next(self) -> None:
        """Closed-loop admission: spawn the next pending demand, if any."""
        if self._next_demand < len(self._demands) and not self._finalized:
            self._spawn_index(self._next_demand)

    def _new_slot(self, flow_id: str, demand: FlowDemand) -> int:
        """Append one flow to the struct-of-arrays bookkeeping."""
        slot = len(self._ids)
        self._ids.append(flow_id)
        self._arrival_s.append(demand.arrival_s)
        self._size_b.append(demand.size_bytes)
        self._start_s.append(self.sim.now)
        self._finish_s.append(float("nan"))
        self._status.append(_LIVE)
        self._reason_idx.append(0)
        self._global_idx.append(self._slots_created)
        self._slots_created += 1
        self._records_cache = None
        return slot

    def _reason_id(self, reason: str) -> int:
        """Intern an abort reason; returns its 1-based index."""
        try:
            return self._reasons.index(reason) + 1
        except ValueError:
            self._reasons.append(reason)
            return len(self._reasons)

    def _spawn_index(self, idx: int) -> None:
        demand = self._demands[idx]
        self._next_demand = max(self._next_demand, idx + 1)
        self.arrivals += 1
        flow_id = f"{self._flow_prefix}w{idx:05d}"
        slot = self._new_slot(flow_id, demand)
        # Hard admission: per-flow soft state may not overflow the budget
        # share left after the cache pool's slice.
        projected = (self.active_flows + 1) * self._flow_state_bytes
        if projected > self._flow_share_bytes:
            self._status[slot] = _ABORTED
            self._reason_idx[slot] = self._reason_id("admission")
            self.aborted += 1
            self.admission_rejects += 1
            if self.spec.closed_loop:
                self._spawn_next()
            return
        self._live[flow_id] = slot
        if self.active_flows > self.peak_concurrency:
            self.peak_concurrency = self.active_flows
        self.budget.set_account(
            "flows", self.active_flows * self._flow_state_bytes
        )
        if self.protocol == LEOTP:
            self._spawn_leotp(flow_id, demand)
        else:
            self._spawn_tcp(flow_id, demand)

    def _spawn_leotp(self, flow_id: str, demand: FlowDemand) -> None:
        if self.content is not None and demand.object_id is not None:
            # Bind before the first Interest: the midnodes' cache keys
            # alias to the object name for this flow's whole lifetime.
            self.content.bind(flow_id, object_name(demand.object_id))
        consumer = Consumer(
            self.sim,
            f"{flow_id}-cons",
            flow_id,
            self.config,
            total_bytes=demand.size_bytes,
            # partials over bound methods (not lambdas): live consumers
            # must survive pickling for shard checkpoint/resume.
            deliver=partial(self._deliver_cb, flow_id),
            on_complete=partial(self._complete_cb, flow_id),
        )
        access = DuplexLink(
            self.sim,
            self.hub,
            consumer,
            rate_bps=self.access_rate_bps,
            delay_s=self.access_delay_s,
            name=f"access-{flow_id}",
        )
        consumer.out_link = access.ba
        self._consumers[flow_id] = consumer

    def _spawn_tcp(self, flow_id: str, demand: FlowDemand) -> None:
        snd_name = f"{flow_id}-snd"
        rcv_name = f"{flow_id}-rcv"
        receiver = TcpReceiver(
            self.sim,
            rcv_name,
            None,
            deliver=lambda nbytes, ts, fid=flow_id, total=demand.size_bytes: (
                self._on_tcp_delivery(fid, nbytes, total, ts)
            ),
            flow_id=flow_id,
        )
        sender = make_tcp_sender(
            self.sim,
            snd_name,
            rcv_name,
            None,
            self.cc_spec if self.cc_spec is not None else self.protocol,
            stream=FiniteStream(demand.size_bytes),
            flow_id=flow_id,
        )
        self._tcp_senders[flow_id] = sender
        up = DuplexLink(
            self.sim, sender, self.routers[0],
            rate_bps=self.access_rate_bps, delay_s=self.access_delay_s,
            name=f"up-{flow_id}",
        )
        down = DuplexLink(
            self.sim, self.routers[-1], receiver,
            rate_bps=self.access_rate_bps, delay_s=self.access_delay_s,
            name=f"down-{flow_id}",
        )
        sender.out_link = up.ab
        receiver.out_link = down.ba
        self._delivered[flow_id] = 0
        # Segments toward the receiver ride .ab; ACKs ride .ba back.
        for i in range(len(self.links)):
            self.routers[i].add_route(rcv_name, self.links[i].ab)
            self.routers[i + 1].add_route(snd_name, self.links[i].ba)
        self.routers[-1].add_route(rcv_name, down.ab)
        self.routers[0].add_route(snd_name, up.ba)

    # ------------------------------------------------------------------
    # Completion / retirement
    # ------------------------------------------------------------------

    def _on_delivery(
        self, flow_id: str, nbytes: int, ts: Optional[float] = None
    ) -> None:
        self.fairness.on_delivery(flow_id, nbytes, self.sim.now)
        if self.recorder is not None:
            owd = self.sim.now - ts if ts is not None else 0.0
            self.recorder.on_delivery(nbytes, max(owd, 0.0))

    def _deliver_cb(self, flow_id: str, nbytes: int, ts: float) -> None:
        """Consumer ``deliver`` adapter (picklable partial target)."""
        self._on_delivery(flow_id, nbytes, ts)

    def _complete_cb(self, flow_id: str, consumer: Consumer) -> None:
        """Consumer ``on_complete`` adapter (picklable partial target)."""
        self._complete(flow_id)

    def _on_tcp_delivery(
        self, flow_id: str, nbytes: int, total: int,
        ts: Optional[float] = None,
    ) -> None:
        self._on_delivery(flow_id, nbytes, ts)
        got = self._delivered.get(flow_id)
        if got is None:
            return  # already completed; late duplicate delivery
        got += nbytes
        self._delivered[flow_id] = got
        if got >= total:
            self._complete(flow_id)

    def _complete(self, flow_id: str) -> None:
        slot = self._live.pop(flow_id, None)
        if slot is None:
            return
        self._finish_s[slot] = self.sim.now
        self._status[slot] = _COMPLETED
        self._records_cache = None
        self.completed += 1
        self.delivered_bytes += self._size_b[slot]
        self._retire(flow_id)
        self.budget.set_account(
            "flows", self.active_flows * self._flow_state_bytes
        )
        if self.spec.closed_loop:
            self._spawn_next()

    def abort_flow(self, flow_id: str, reason: str = "aborted") -> bool:
        """Abort one live flow, recording ``reason`` (e.g. ``"no_route"``).

        The flow's record is finalised as aborted, its soft state retired
        from every shared node, and (LEOTP) its Consumer quiesced via
        ``stop_time`` so it stops re-requesting into a dead route.  Under
        closed-loop admission the freed slot spawns the next demand, like
        a completion would.  Returns False if the flow is not live.
        """
        slot = self._live.pop(flow_id, None)
        if slot is None:
            return False
        self._status[slot] = _ABORTED
        self._reason_idx[slot] = self._reason_id(reason)
        self._finish_s[slot] = self.sim.now
        self._records_cache = None
        self.aborted += 1
        consumer = self._consumers.get(flow_id)
        if consumer is not None:
            consumer.stop_time = self.sim.now
        self._retire(flow_id)
        self.budget.set_account(
            "flows", self.active_flows * self._flow_state_bytes
        )
        if self.spec.closed_loop:
            self._spawn_next()
        return True

    def notify_churn(self, kind: str) -> int:
        """Broadcast a topology churn signal to every live TCP sender.

        Deterministic (sorted flow-id order); LEOTP pools have no TCP
        senders and the call is a no-op.  Returns the number notified.
        """
        notified = 0
        for flow_id in sorted(self._tcp_senders):
            self._tcp_senders[flow_id].notify_churn(kind)
            notified += 1
        return notified

    def abort_live(self, reason: str = "aborted") -> int:
        """Abort every live flow (deterministic order); returns the count."""
        flow_ids = sorted(self._live)
        for flow_id in flow_ids:
            self.abort_flow(flow_id, reason)
        return len(flow_ids)

    def _retire(self, flow_id: str) -> None:
        """Release the flow's soft state from every shared node."""
        if self.protocol == LEOTP:
            for mid in self.midnodes:
                mid.retire_flow(flow_id)
            self.producer.retire_flow(flow_id)
            self._consumers.pop(flow_id, None)
            if self.content is not None:
                # Unbind *after* the midnodes retired: the binding is
                # what told them to keep the shared object blocks.
                self.content.unbind(flow_id)
        else:
            self._delivered.pop(flow_id, None)
            sender = self._tcp_senders.pop(flow_id, None)
            if sender is not None:
                # Its ACKs become unroutable below (a completed flow never
                # sees its last ones): left running, the sender would
                # RTO-retransmit into the dead access link forever.
                sender.stop()
            snd_name = f"{flow_id}-snd"
            rcv_name = f"{flow_id}-rcv"
            for router in self.routers:
                router.remove_route(snd_name)
                router.remove_route(rcv_name)

    def finalize(self) -> None:
        """End the workload: unfinished flows become aborted, state drops."""
        if self._finalized:
            return
        self._finalized = True
        if self._timeline is not None:
            self._timeline.stop()
        for flow_id, slot in list(self._live.items()):
            self._status[slot] = _ABORTED
            self._reason_idx[slot] = self._reason_id("unfinished")
            self.aborted += 1
            self._retire(flow_id)
        self._live.clear()
        self._records_cache = None
        # An Interest in flight when its flow was aborted can reach a
        # responder after retirement and rebuild the (soft, on-demand)
        # per-flow state; sweep every recorded flow once more — including
        # flows whose slots already spilled to the result sink — so
        # nothing outlives the run.
        for flow_id in self._spilled_ids:
            self._retire(flow_id)
        for flow_id in self._ids:
            self._retire(flow_id)
        self.budget.set_account("flows", 0)

    # ------------------------------------------------------------------
    # Result streaming (sharded runs)
    # ------------------------------------------------------------------

    def set_result_sink(self, sink) -> None:
        """Stream closed flows' result rows to ``sink`` (``.write(dict)``).

        With a sink attached, :meth:`spill_closed` — called by the shard
        worker at every epoch boundary — moves completed/aborted slots
        out of the struct-of-arrays state into the sink, so resident
        per-flow bookkeeping stays proportional to *live* flows while the
        final :meth:`summary` stays bit-identical with an unspilled run.
        """
        self._result_sink = sink

    def _spill_slot(self, slot: int) -> None:
        """Write one closed slot to the sink and accumulate its stats."""
        finish = self._finish_s[slot]
        finish_val: Optional[float] = finish if finish == finish else None
        aborted = self._status[slot] == _ABORTED
        ridx = self._reason_idx[slot]
        reason = self._reasons[ridx - 1] if ridx else None
        gidx = self._global_idx[slot]
        # Fixed key order keeps spill files byte-stable across runs.
        self._result_sink.write({
            "idx": gidx,
            "flow": self._ids[slot],
            "arrival_s": self._arrival_s[slot],
            "size_b": self._size_b[slot],
            "start_s": self._start_s[slot],
            "finish_s": finish_val,
            "status": "aborted" if aborted else "completed",
            "reason": reason,
        })
        completed = finish_val is not None and not aborted
        fct = (finish_val - self._start_s[slot]) if completed else None
        self._acc_idx.append(gidx)
        self._acc_fct.append(fct if fct is not None else float("nan"))
        self._acc_goodput.append(
            self._size_b[slot] / fct
            if fct is not None and fct > 0
            else float("nan")
        )
        if aborted and reason is not None:
            self._spilled_reasons[reason] = (
                self._spilled_reasons.get(reason, 0) + 1
            )
        self._spilled_ids.append(self._ids[slot])
        self.spilled_flows += 1

    def spill_closed(self) -> int:
        """Spill every closed slot to the result sink; returns the count.

        No-op without a sink.  Slots spill in slot order (== global
        order, since earlier spills only ever removed a prefix-closed
        subset), and the surviving live slots are compacted in place
        with their global indices preserved.
        """
        if self._result_sink is None:
            return 0
        n = len(self._ids)
        closed = [i for i in range(n) if self._status[i] != _LIVE]
        if not closed:
            return 0
        for slot in closed:
            self._spill_slot(slot)
        keep = [i for i in range(n) if self._status[i] == _LIVE]
        self._ids = [self._ids[i] for i in keep]
        self._arrival_s = array("d", (self._arrival_s[i] for i in keep))
        self._size_b = array("q", (self._size_b[i] for i in keep))
        self._start_s = array("d", (self._start_s[i] for i in keep))
        self._finish_s = array("d", (self._finish_s[i] for i in keep))
        self._status = bytearray(self._status[i] for i in keep)
        self._reason_idx = bytearray(self._reason_idx[i] for i in keep)
        self._global_idx = array("q", (self._global_idx[i] for i in keep))
        # Every kept slot is live (closed slots all spilled), so the
        # live map is just the compacted enumeration.
        self._live = {fid: pos for pos, fid in enumerate(self._ids)}
        self._records_cache = None
        return len(closed)

    # ------------------------------------------------------------------
    # Reporting / observability
    # ------------------------------------------------------------------

    def _record(self, slot: int) -> FlowRecord:
        finish = self._finish_s[slot]
        ridx = self._reason_idx[slot]
        return FlowRecord(
            flow_id=self._ids[slot],
            arrival_s=self._arrival_s[slot],
            size_bytes=self._size_b[slot],
            start_s=self._start_s[slot],
            finish_s=finish if finish == finish else None,  # NaN -> None
            aborted=self._status[slot] == _ABORTED,
            abort_reason=self._reasons[ridx - 1] if ridx else None,
        )

    @property
    def records(self) -> list[FlowRecord]:
        """Per-flow :class:`FlowRecord` view of the struct-of-arrays state.

        Materialised on demand and cached until the next lifecycle change;
        treat the returned records as snapshots, not live objects.
        """
        cache = self._records_cache
        if cache is None:
            cache = self._records_cache = [
                self._record(i) for i in range(len(self._ids))
            ]
        return cache

    def attach_samplers(self, interval_s: Optional[float] = None) -> str:
        """Register pool-level samplers (occupancy, memory) with METRICS."""
        run = METRICS.new_run(f"{self.name}:{self.protocol}")
        samplers = {
            "pool.active_flows": ("pool", lambda: float(self.active_flows)),
            "pool.completed": ("pool", lambda: float(self.completed)),
            "pool.budget_bytes": (
                "pool", lambda: float(self.budget.total_bytes)),
        }
        if self.cache_pool is not None:
            samplers["pool.cache_bytes"] = (
                "pool", lambda: float(self.cache_pool.stored_bytes))
        METRICS.attach_group(self.sim, run, samplers, interval_s)
        return run

    def summary(self) -> dict[str, float]:
        """Aggregate outcome of the run (call after :meth:`finalize`).

        Bit-identical whether or not slots spilled: samples from the
        spill accumulators and the resident slots are merged and sorted
        by global slot index, so the float arrays fed to the percentile
        and mean computations match an unspilled run element for element.
        """
        from repro.analysis.stats import fct_percentiles

        samples: list[tuple[int, float, float]] = list(
            zip(self._acc_idx, self._acc_fct, self._acc_goodput)
        )
        nan = float("nan")
        for slot, record in enumerate(self.records):
            fct = record.fct_s
            goodput = record.goodput_bytes_s
            samples.append((
                self._global_idx[slot],
                fct if fct is not None else nan,
                goodput if goodput is not None else nan,
            ))
        samples.sort(key=lambda s: s[0])
        fcts = [f for _, f, _ in samples if f == f]  # NaN != NaN
        goodputs = [g for _, _, g in samples if g == g]
        out: dict[str, float] = {
            "arrivals": float(self.arrivals),
            "completed": float(self.completed),
            "aborted": float(self.aborted),
            "admission_rejects": float(self.admission_rejects),
            "peak_concurrency": float(self.peak_concurrency),
            "budget_peak_bytes": float(self.budget.peak_bytes),
            "budget_breaches": float(self.budget.breaches),
        }
        reasons: dict[str, int] = dict(self._spilled_reasons)
        for record in self.records:
            if record.aborted and record.abort_reason is not None:
                reasons[record.abort_reason] = (
                    reasons.get(record.abort_reason, 0) + 1
                )
        for reason in sorted(reasons):
            out[f"aborted_{reason}"] = float(reasons[reason])
        if self.cache_pool is not None:
            out["cache_pool_evictions"] = float(self.cache_pool.pool_evictions)
            out["cache_pool_evicted_bytes"] = float(
                self.cache_pool.pool_evicted_bytes
            )
        if self.content is not None:
            # Content effectiveness: what fraction of requested bytes the
            # chain's caches served, what fraction came from bytes some
            # *other* flow fetched, and how much origin (Producer) load
            # the sharing removed.  Keys appear only for content pools so
            # classic workload rows stay byte-stable.
            lookup_b = hit_b = cross_b = 0
            for mid in self.midnodes:
                st = mid.cache.stats
                lookup_b += st.lookup_bytes
                hit_b += st.hit_bytes
                cross_b += st.cross_hit_bytes
            origin_b = self.producer.wire_bytes_sent
            delivered = self.delivered_bytes
            out["content_objects"] = float(len({
                d.object_id for d in self._demands if d.object_id is not None
            }))
            out["cache_hit_ratio"] = hit_b / lookup_b if lookup_b else 0.0
            out["cross_hit_ratio"] = cross_b / lookup_b if lookup_b else 0.0
            out["origin_bytes"] = float(origin_b)
            out["origin_load_reduction"] = (
                max(0.0, 1.0 - origin_b / delivered) if delivered else 0.0
            )
        out.update(fct_percentiles(fcts))
        if goodputs:
            out["goodput_mean_bytes_s"] = sum(goodputs) / len(goodputs)
        out.update(self.fairness.summary())
        return out
