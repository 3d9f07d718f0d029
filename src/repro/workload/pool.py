"""FlowPool: hundreds-to-thousands of flows multiplexed over one chain.

Single-flow experiments build one path per flow, each with its own
links and intermediate nodes.  A :class:`FlowPool` instead shares the
chain — one Producer and one row of Midnodes (LEOTP) or Routers (TCP
baselines) carry every flow — and manages per-flow lifecycle around it:

* **spawn** — a Consumer (or TCP endpoint pair) is created at the flow's
  arrival time and attached to the shared hub through its own access
  link, subject to memory-budget admission;
* **close** — every way a flow ends (completion, :meth:`FlowPool.
  abort_flow`, a refusal at admission, or :meth:`FlowPool.finalize`
  finding it unfinished) goes through one ``FlowPool._close``: the
  record is finalised (an abort is counted, never silently dropped) and
  the flow's soft state is *retired* from every shared node
  (``retire_flow``), so long runs do not accumulate per-flow state.  A
  LEOTP flow is first checked against the protocol invariants
  (:func:`~repro.faults.invariants.check_flow`); a broken rule raises
  :class:`~repro.faults.invariants.InvariantViolation` naming the flow,
  the rule and the simulated time.

Memory is governed by a :class:`~repro.workload.budget.MemoryBudget`:
Midnode caches draw from one :class:`~repro.workload.budget.
SharedCachePool` sized to a fraction of the ceiling, per-flow soft state
is charged to a ``flows`` account, and arrivals that would overflow the
flow share are rejected at admission — the ceiling is a hard bound, not
a hint.

Everything is deterministic per seed: arrivals come from a named RNG
stream, spawn order follows the demand list, and each Midnode's cache
evicts in its own LRU/LFU order (LFU ties by block creation order).

Per-flow bookkeeping is one :class:`~repro.workload.metrics.FlowRecord`
per arrival: :attr:`FlowPool.records` lists them in spawn order and a
live flow's entry holds it with its endpoint.  With a result sink
(sharded runs) closed records spill to disk instead, so resident
bookkeeping stays proportional to *live* flows at any flow count.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.content.catalog import object_name
from repro.content.placement import CachePolicy, placement_weights
from repro.content.registry import ContentRegistry
from repro.core.config import LeotpConfig
from repro.core.consumer import Consumer
from repro.core.flow import wire_leotp_chain
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
from repro.tcp.cc import make_cc
from repro.tcp.cc.spec import CCSpec, as_cc_spec
from repro.workload.arrivals import FlowDemand, WorkloadSpec, generate_demands
from repro.workload.budget import MemoryBudget, SharedCachePool
from repro.workload.metrics import FairnessTracker, FlowRecord

if TYPE_CHECKING:
    from repro.tcp.connection import TcpReceiver, TcpSender


#: Estimated soft-state bytes one flow pins on one responder node
#: (SHR detector, rate controller, learned links, range bookkeeping).
FLOW_STATE_BYTES_PER_NODE = 512

#: Protocols the pool can multiplex.  ``"leotp"`` shares Midnodes;
#: anything else is treated as a TCP congestion-control name and shares
#: a router chain.
LEOTP = "leotp"

#: Every flow's own access link (consumer side for LEOTP, both ends for
#: TCP): fast and short, so the shared chain is the bottleneck.
ACCESS_RATE_BPS = 100e6
ACCESS_DELAY_S = 0.002

#: Window of the pool's Jain fairness tracker.
FAIRNESS_WINDOW_S = 1.0


class _Live:
    """One admitted flow while it runs: its record, its endpoint (the
    LEOTP Consumer or the TCP sender) and the app bytes it delivered."""

    __slots__ = ("record", "endpoint", "delivered")

    def __init__(self, record: FlowRecord) -> None:
        self.record = record
        self.endpoint: Union[Consumer, TcpSender, None] = None
        self.delivered = 0


class FlowPool:
    """Spawns, multiplexes, and retires many flows over one shared path.

    With ``result_sink`` (anything with ``.write(dict)``), each flow's
    result row is written the moment the flow closes (completes, aborts,
    is refused admission or is left unfinished by :meth:`finalize`) and
    its record is not kept, so resident per-flow bookkeeping stays
    proportional to *live* flows; :meth:`summary` is the same either way.
    """

    def __init__(
        self,
        sim: Simulator,
        rng: RngRegistry,
        *,
        spec: WorkloadSpec,
        hops: Sequence[HopSpec],
        protocol: Union[str, CCSpec] = LEOTP,
        memory_ceiling_bytes: int = 48 << 20,
        cache_fraction: float = 0.75,
        name: str = "pool",
        cache_policy: Optional[CachePolicy] = None,
        recorder: Optional[FlowRecorder] = None,
        result_sink=None,
    ) -> None:
        if len(hops) < 1:
            raise ValueError("need at least one hop")
        if not 0.0 < cache_fraction < 1.0:
            raise ValueError("cache_fraction must be in (0, 1)")
        if not name:
            raise ValueError("pool name must be non-empty")
        if not isinstance(cache_policy, (CachePolicy, type(None))):
            raise ValueError("cache_policy must be a CachePolicy or None")
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
        self.config = LeotpConfig()
        self.budget = MemoryBudget(memory_ceiling_bytes)
        # Optional pool-wide delivery recorder: every flow's deliveries
        # land in one timeline, so recovery metrics (goodput dips around
        # handovers) apply to the aggregate exactly as to a single flow.
        self.recorder = recorder
        self.fairness = FairnessTracker(FAIRNESS_WINDOW_S)
        #: Flow records in spawn order (live objects: a record is updated
        #: in place when its flow closes); empty with a result sink.
        self.records: list[FlowRecord] = []
        self._live: dict[str, _Live] = {}  # flow_id -> admitted, not closed
        self._result_sink = result_sink
        # Counters.
        self.arrivals = 0
        self.completed = 0
        self.aborted = 0
        self.delivered_bytes = 0
        self.admission_rejects = 0
        self.peak_concurrency = 0
        self._abort_reasons: dict[str, int] = {}
        self._finalized = False

        arrivals_stream = (
            "workload:arrivals"
            if name == "pool"
            else f"workload:{name}:arrivals"
        )
        demands = generate_demands(spec, rng.stream(arrivals_stream))
        self._demands = demands
        self._next_demand = 0
        # The summary's samples, at each flow's spawn index, so they read
        # in spawn order however flows closed; NaN: none (not completed,
        # or never spawned).
        self._fct = array("d", [float("nan")]) * len(demands)
        self._goodput = array("d", [float("nan")]) * len(demands)

        self.cache_policy = cache_policy  # stays None on TCP pools
        if protocol == LEOTP:
            # No policy means the default cell: uniform placement, LRU.
            policy = self.cache_policy = cache_policy or CachePolicy()
            self._build_leotp_chain(hops)
            cache_capacity = int(memory_ceiling_bytes * cache_fraction)
            # Placement: one budget partitioned across chain positions.
            self.cache_pool: Optional[SharedCachePool] = SharedCachePool(
                cache_capacity,
                placement_weights(policy.placement, len(self.midnodes)),
                self.config.cache_block_bytes,
                budget=self.budget,
                eviction=policy.eviction,
            )
            for mid, cache in zip(self.midnodes, self.cache_pool.members):
                mid.cache = cache
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
            # The engine loads with the pool, not inside the first spawn's
            # timed region, and a LEOTP run never loads it.
            from repro.tcp import connection

            self._tcp = connection
            make_cc(self.cc_spec)  # loads the law, and refuses a bad spec, now
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
        self.links = wire_leotp_chain(
            self.sim, self.rng, [self.producer, *self.midnodes], hops
        )
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

    def _flow_id(self, idx: int) -> str:
        return f"{self._flow_prefix}w{idx:05d}"

    def _spawn_next(self) -> None:
        """Closed-loop admission: spawn the next pending demand, if any."""
        if self._next_demand < len(self._demands) and not self._finalized:
            self._spawn_index(self._next_demand)

    def _spawn_index(self, idx: int) -> None:
        demand = self._demands[idx]
        self._next_demand = max(self._next_demand, idx + 1)
        self.arrivals += 1
        flow_id = self._flow_id(idx)
        live = _Live(FlowRecord(
            flow_id, demand.arrival_s, demand.size_bytes,
            start_s=self.sim.now, index=idx,
        ))
        if self._result_sink is None:
            self.records.append(live.record)
        # Hard admission: per-flow soft state may not overflow the budget
        # share left after the cache pool's slice.
        projected = (self.active_flows + 1) * self._flow_state_bytes
        if projected > self._flow_share_bytes:
            self._close(live, "admission")
            return
        self._live[flow_id] = live
        if self.active_flows > self.peak_concurrency:
            self.peak_concurrency = self.active_flows
        self.budget.set_account(
            "flows", self.active_flows * self._flow_state_bytes
        )
        if self.protocol == LEOTP:
            live.endpoint = self._spawn_leotp(flow_id, demand)
        else:
            live.endpoint = self._spawn_tcp(flow_id, demand)

    def _spawn_leotp(self, flow_id: str, demand: FlowDemand) -> Consumer:
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
            deliver=partial(self._deliver_cb, flow_id),
            on_complete=partial(self._complete_cb, flow_id),
        )
        self.attach_consumer(flow_id, consumer)
        return consumer

    def attach_consumer(self, flow_id: str, consumer: Consumer) -> None:
        """Hang ``consumer`` off the hub through its own access link."""
        access = DuplexLink(
            self.sim,
            self.hub,
            consumer,
            rate_bps=ACCESS_RATE_BPS,
            delay_s=ACCESS_DELAY_S,
            name=f"access-{flow_id}",
        )
        consumer.out_link = access.ba

    def _spawn_tcp(self, flow_id: str, demand: FlowDemand) -> TcpSender:
        tcp = self._tcp
        snd_name = f"{flow_id}-snd"
        rcv_name = f"{flow_id}-rcv"
        receiver = tcp.TcpReceiver(
            self.sim,
            rcv_name,
            None,
            deliver=partial(self._on_tcp_delivery, flow_id),
            flow_id=flow_id,
        )
        sender = tcp.TcpSender(
            self.sim,
            snd_name,
            rcv_name,
            None,
            self.cc_spec,
            stream=tcp.FiniteStream(demand.size_bytes),
            flow_id=flow_id,
        )
        self.attach_tcp(flow_id, sender, receiver)
        return sender

    def attach_tcp(
        self, flow_id: str, sender: TcpSender, receiver: TcpReceiver
    ) -> None:
        """Access links at both chain ends plus the flow's route entries:
        two per router (``2 * len(links) + 2`` in all)."""
        snd_name, rcv_name = sender.name, receiver.name
        up = DuplexLink(
            self.sim, sender, self.routers[0],
            rate_bps=ACCESS_RATE_BPS, delay_s=ACCESS_DELAY_S,
            name=f"up-{flow_id}",
        )
        down = DuplexLink(
            self.sim, self.routers[-1], receiver,
            rate_bps=ACCESS_RATE_BPS, delay_s=ACCESS_DELAY_S,
            name=f"down-{flow_id}",
        )
        sender.out_link = up.ab
        receiver.out_link = down.ba
        # Segments toward the receiver ride .ab; ACKs ride .ba back.
        for i in range(len(self.links)):
            self.routers[i].add_route(rcv_name, self.links[i].ab)
            self.routers[i + 1].add_route(snd_name, self.links[i].ba)
        self.routers[-1].add_route(rcv_name, down.ab)
        self.routers[0].add_route(snd_name, up.ba)

    # ------------------------------------------------------------------
    # Delivery and closing
    # ------------------------------------------------------------------

    def _on_delivery(
        self, flow_id: str, nbytes: int, ts: Optional[float] = None
    ) -> None:
        self.fairness.on_delivery(flow_id, nbytes, self.sim.now)
        if self.recorder is not None:
            owd = self.sim.now - ts if ts is not None else 0.0
            self.recorder.on_delivery(nbytes, max(owd, 0.0))

    def _deliver_cb(self, flow_id: str, nbytes: int, ts: float) -> None:
        """Consumer ``deliver`` adapter; counts the flow's app bytes."""
        self._on_delivery(flow_id, nbytes, ts)
        live = self._live.get(flow_id)
        if live is not None:  # None: a straggler after the flow closed
            live.delivered += nbytes

    def _complete_cb(self, flow_id: str, consumer: Consumer) -> None:
        """Consumer ``on_complete`` adapter."""
        live = self._live.get(flow_id)
        if live is not None:  # None: data still in flight when it aborted
            self._close(live)

    def _on_tcp_delivery(
        self, flow_id: str, nbytes: int, ts: Optional[float] = None
    ) -> None:
        """TcpReceiver ``deliver`` adapter; the last byte completes."""
        self._on_delivery(flow_id, nbytes, ts)
        live = self._live.get(flow_id)
        if live is None:
            return  # already closed; late duplicate delivery
        live.delivered += nbytes
        if live.delivered >= live.record.size_bytes:
            self._close(live)

    def _close(self, live: _Live, reason: Optional[str] = None) -> None:
        """End one flow: completed (``reason`` None) or aborted.

        The one place a flow ends, in order: counters and record, the
        summary sample and the sink row, the endpoint (a LEOTP flow is
        checked against the protocol invariants while the nodes still
        hold its state; a TCP sender is stopped), shared-node retirement,
        the ledger, and the closed-loop refill.  An arrival refused at
        admission has no endpoint and held no state; a flow that
        :meth:`finalize` closes keeps ``finish_s`` None.
        """
        record, endpoint = live.record, live.endpoint
        flow_id = record.flow_id
        self._live.pop(flow_id, None)
        if reason is None:
            record.finish_s = self.sim.now
            self.completed += 1
            self.delivered_bytes += record.size_bytes
            self._fct[record.index] = record.fct_s
            goodput = record.goodput_bytes_s
            if goodput is not None:
                self._goodput[record.index] = goodput
        else:
            record.aborted = True
            record.abort_reason = reason
            self.aborted += 1
            reasons = self._abort_reasons
            reasons[reason] = reasons.get(reason, 0) + 1
            if endpoint is None:
                self.admission_rejects += 1
            elif not self._finalized:
                record.finish_s = self.sim.now
        if self._result_sink is not None:
            # Fixed key order keeps spill files byte-stable across runs.
            self._result_sink.write({
                "idx": record.index,
                "flow": flow_id,
                "arrival_s": record.arrival_s,
                "size_b": record.size_bytes,
                "start_s": record.start_s,
                "finish_s": record.finish_s,
                "status": "aborted" if record.aborted else "completed",
                "reason": reason,
            })
        if endpoint is not None:
            if self.protocol == LEOTP:
                if reason is not None:
                    # Quiesced: no more re-requests into a dead route.
                    endpoint.stop_time = self.sim.now
                size = None if record.aborted else record.size_bytes
                self._check(live, size)
            else:
                # Its ACKs become unroutable below (a completed flow never
                # sees its last ones): left running, the sender would
                # RTO-retransmit into the dead access link forever.
                endpoint.stop()
            self._retire(flow_id)
            if not self._finalized:  # finalize zeroes the ledger once
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
        live = self._live.get(flow_id)
        if live is None:
            return False
        self._close(live, reason)
        return True

    def notify_churn(self, kind: str) -> int:
        """Broadcast a topology churn signal to every live TCP sender.

        Deterministic (sorted flow-id order); LEOTP pools have no TCP
        senders and the call is a no-op.  Returns the number notified.
        """
        if self.protocol == LEOTP:
            return 0
        for flow_id in sorted(self._live):
            self._live[flow_id].endpoint.notify_churn(kind)
        return len(self._live)

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
            if self.content is not None:
                # Unbind *after* the midnodes retired: the binding is
                # what told them to keep the shared object blocks.
                self.content.unbind(flow_id)
        else:
            snd_name = f"{flow_id}-snd"
            rcv_name = f"{flow_id}-rcv"
            for router in self.routers:
                router.remove_route(snd_name)
                router.remove_route(rcv_name)

    def _check(self, live: _Live, size: Optional[int]) -> None:
        """Raise if the flow broke a protocol invariant; ``size`` is a
        completed flow's, which it must have delivered byte-exact."""
        # Imported here: importing repro.workload loads no fault layer.
        from repro.faults.invariants import InvariantViolation, check_flow

        violations = check_flow(
            live.endpoint, [self.producer, *self.midnodes],
            app_bytes=live.delivered, size=size,
        )
        if violations:
            raise InvariantViolation.of(
                violations,
                f"flow {live.record.flow_id} at t={self.sim.now:.6f}s: ",
            )

    def finalize(self) -> None:
        """End the workload: unfinished flows become aborted, state drops."""
        if self._finalized:
            return
        self._finalized = True
        if self._timeline is not None:
            self._timeline.stop()
        for live in list(self._live.values()):
            self._close(live, "unfinished")
        # An Interest in flight when its flow was aborted can reach a
        # responder after retirement and rebuild the (soft, on-demand)
        # per-flow state; sweep every spawned flow once more so nothing
        # outlives the run.
        for idx in range(self._next_demand):
            self._retire(self._flow_id(idx))
        self.budget.set_account("flows", 0)

    # ------------------------------------------------------------------
    # Reporting / observability
    # ------------------------------------------------------------------

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

        FCT and goodput samples read in spawn order, so the float sums
        are the same whether or not a result sink took the records.
        """
        from repro.analysis.stats import fct_percentiles

        fcts = [f for f in self._fct if f == f]  # NaN != NaN
        goodputs = [g for g in self._goodput if g == g]
        out: dict[str, float] = {
            "arrivals": float(self.arrivals),
            "completed": float(self.completed),
            "aborted": float(self.aborted),
            "admission_rejects": float(self.admission_rejects),
            "peak_concurrency": float(self.peak_concurrency),
            "budget_peak_bytes": float(self.budget.peak_bytes),
            "budget_breaches": float(self.budget.breaches),
        }
        for reason in sorted(self._abort_reasons):
            out[f"aborted_{reason}"] = float(self._abort_reasons[reason])
        if self.cache_pool is not None:
            out["cache_pool_evictions"] = float(self.cache_pool.evictions)
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
