"""Outside-in tracer: which layer the host time of a run goes to.

Nothing under ``src/`` knows about this module.  A traced run differs
from an untraced one in two ways, both applied from here:

* the scenario is built on a ``Simulator`` *subclass* whose
  ``schedule`` / ``schedule_at`` / ``schedule_call`` wrap each callback,
  so every executed event becomes a span owned by the layer of
  ``callback.__self__.__class__.__module__`` (closures: ``__module__``;
  ``functools.partial`` and the ``simcore.process`` timer helpers are
  unwrapped to the callback they carry);
* the layer-boundary methods are wrapped *at class level* — a link
  delivery synchronously enters protocol code, so attributing by event
  owner alone would book most of a LEOTP run to ``netsim``.

Spans nest on one stack.  A layer's **self time** is its span's duration
minus the part its child spans cover, so the per-layer self times sum to
the traced wall of the timed region exactly.  A span entered while its
own layer is already on top of the stack is folded into that span
(``Router.receive`` -> ``Link.send`` is one ``netsim`` span, not two).

Aggregates (span count and self time per layer) cover every span; the
full span list is kept for the first ``MAX_FLOWS`` flows only, capped at
``MAX_SPANS`` spans, all in memory until :meth:`Tracer.dump`.  Tracing is
read-only: it never touches protocol state or event order, which the
benchmark checks by comparing the traced run's ``sim_digest`` with the
untraced one.  The class-level patches last for the life of the process;
traced runs therefore get a process of their own (``bench/child.py``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter

from repro.common.ranges import RangeSet
from repro.content.registry import ContentRegistry
from repro.core.cache import BlockCache
from repro.core.congestion import HopRateController
from repro.core.consumer import Consumer
from repro.core.midnode import Midnode
from repro.core.paced import PacedSender
from repro.core.producer import Producer
from repro.core.shr import SeqHoleDetector
from repro.netsim.link import Link
from repro.netsim.node import Node
from repro.simcore.simulator import Simulator
from repro.tcp.cc.base import CongestionControl
from repro.tcp.connection import TcpSender
from repro.workload.pool import FlowPool

#: The ledger's layers, named after the modules under ``src/repro/``.
LAYERS = (
    "simcore", "netsim", "common", "core.consumer", "core.midnode",
    "core.producer", "core.cache", "core.paced", "tcp.connection", "tcp.cc",
    "workload", "content", "shard",
)
#: Everything else (benchmark glue, ``faults``, ``obs``, builtins): the
#: ``trace.unattributed_share``.
OTHER = "other"

#: Module prefix -> layer, most specific first.
_MODULE_LAYERS = (
    ("repro.simcore", "simcore"),
    ("repro.netsim", "netsim"),
    ("repro.common", "common"),
    ("repro.core.consumer", "core.consumer"),
    ("repro.core.midnode", "core.midnode"),
    ("repro.core.multicast", "core.midnode"),
    ("repro.core.producer", "core.producer"),
    ("repro.core.cache", "core.cache"),
    ("repro.core.paced", "core.paced"),
    ("repro.core.congestion", "core.paced"),
    ("repro.core.shr", "core.paced"),
    ("repro.tcp.cc", "tcp.cc"),
    ("repro.tcp", "tcp.connection"),
    ("repro.workload", "workload"),
    ("repro.content", "content"),
    ("repro.shard", "shard"),
)

MAX_FLOWS = 200
MAX_SPANS = 50_000

# Frame slots (plain lists: this is the hot path of a traced run).
_LAYER, _CHILD_S, _FLOW, _KEEP, _ID, _T0, _NAME = range(7)


def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


def _class_tree(base: type) -> list[type]:
    """``base`` and every imported subclass, each once."""
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


# How a wrapped method's flow id is found (only evaluated while the span
# list is still recording).
def _flow_of_packet(args, kwargs):
    return getattr(args[0], "flow_id", None)


def _flow_of_arg0(args, kwargs):
    return args[0]


def _flow_of_store(args, kwargs):
    return kwargs.get("writer") or (args[3] if len(args) > 3 else None)


def _flow_of_lookup(args, kwargs):
    return kwargs.get("requester") or (args[2] if len(args) > 2 else None)


class Tracer:
    """Span stack, per-layer aggregates, and the objects seen at boundaries."""

    def __init__(self) -> None:
        names = LAYERS + (OTHER,)
        self.self_s = dict.fromkeys(names, 0.0)
        self.spans_in = dict.fromkeys(names, 0)
        self._stack: list[list] = []
        self._class_layer: dict[type, str] = {}
        # Span list of the first MAX_FLOWS flows.
        self._recording = True
        self._flows: dict[str, int] = {}
        self._next_id = 0
        self._origin = 0.0
        self.spans: list[tuple] = []
        self.traced_wall_s = 0.0
        # Objects met at the boundaries; their public counters are read
        # once, after the run (see counters()).
        self.nodes: dict[int, Node] = {}
        self.links: dict[int, Link] = {}
        self.pools: dict[int, FlowPool] = {}
        self.sims: list[Simulator] = []

    # ------------------------------------------------------------------
    # Span stack
    # ------------------------------------------------------------------

    def _enter(self, layer: str, flow, name) -> list:
        stack = self._stack
        if flow is None and stack:
            flow = stack[-1][_FLOW]
        self._next_id += 1
        frame = [layer, 0.0, flow, False, self._next_id, 0.0, name]
        stack.append(frame)
        frame[_T0] = perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        t1 = perf_counter()
        dt = t1 - frame[_T0]
        stack = self._stack
        stack.pop()
        layer = frame[_LAYER]
        self.self_s[layer] += dt - frame[_CHILD_S]
        self.spans_in[layer] += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[_CHILD_S] += dt
        if self._recording:
            self._record(frame, parent, t1)

    def _record(self, frame: list, parent, t1: float) -> None:
        flow = frame[_FLOW]
        keep = frame[_KEEP]
        if not keep and flow is not None:
            flows = self._flows
            if flow in flows:
                keep = True
            elif len(flows) < MAX_FLOWS:
                flows[flow] = len(flows)
                keep = True
        if not keep:
            return
        name = frame[_NAME]
        if isinstance(name, type):  # receiver class of a Node.receive
            name = f"{name.__name__}.receive"
        elif not isinstance(name, str):  # an event callback: name lazily
            name = getattr(name, "__qualname__", None) or type(name).__name__
        self.spans.append((
            frame[_ID], parent[_ID] if parent is not None else 0,
            frame[_LAYER], name,
            frame[_T0] - self._origin, t1 - self._origin, flow,
        ))
        if parent is not None:
            parent[_KEEP] = True
            # An event span (named by its callback, not by a string)
            # learns its flow from the first child that has one.
            if parent[_FLOW] is None and not isinstance(parent[_NAME], str):
                parent[_FLOW] = flow
        if len(self.spans) >= MAX_SPANS:
            self._recording = False

    @contextmanager
    def timed_region(self, layer: str = OTHER):
        """Root span of the timed region; ``layer`` owns what no span covers."""
        self._origin = perf_counter()
        frame = self._enter(layer, None, "timed_region")
        try:
            yield
        finally:
            self._exit(frame)
        self.traced_wall_s = perf_counter() - self._origin

    # ------------------------------------------------------------------
    # Event ownership
    # ------------------------------------------------------------------

    def _layer_of_class(self, cls: type) -> str:
        layer = self._class_layer.get(cls)
        if layer is None:
            layer = self._class_layer[cls] = layer_of_module(cls.__module__)
        return layer

    def owner_layer(self, callback) -> str:
        """Layer owning an event callback."""
        while True:
            owner = getattr(callback, "__self__", None)
            if owner is not None:
                cls = type(owner)
                if cls.__module__ == "repro.simcore.process":
                    # Timer / PeriodicProcess / TimelineProcess: owned by
                    # whoever they call back.
                    carried = getattr(owner, "_callback", None)
                    if carried is not None:
                        callback = carried
                        continue
                return self._layer_of_class(cls)
            inner = getattr(callback, "func", None)  # functools.partial
            if inner is not None:
                callback = inner
                continue
            module = getattr(callback, "__module__", None)
            if module is None:
                return self._layer_of_class(type(callback))
            return layer_of_module(module)

    def _fire(self, layer: str, callback, args) -> None:
        frame = self._enter(layer, None, callback)
        try:
            callback(*args)
        finally:
            self._exit(frame)

    def simulator_class(self) -> type:
        """A ``Simulator`` subclass bound to this tracer."""
        tracer = self

        class TracedSimulator(Simulator):
            def __init__(self) -> None:
                super().__init__()
                tracer.sims.append(self)

            def _simcore(self, method, name, *args, **kwargs):
                stack = tracer._stack
                if stack and stack[-1][_LAYER] == "simcore":
                    return method(*args, **kwargs)
                frame = tracer._enter("simcore", None, name)
                try:
                    return method(*args, **kwargs)
                finally:
                    tracer._exit(frame)

            def schedule(self, delay, callback, *args, priority=0):
                return self._simcore(
                    super().schedule, "Simulator.schedule", delay,
                    tracer._fire, tracer.owner_layer(callback), callback,
                    args, priority=priority,
                )

            def schedule_at(self, time, callback, *args, priority=0):
                return self._simcore(
                    super().schedule_at, "Simulator.schedule_at", time,
                    tracer._fire, tracer.owner_layer(callback), callback,
                    args, priority=priority,
                )

            def schedule_call(self, delay, callback, *args, priority=0):
                return self._simcore(
                    super().schedule_call, "Simulator.schedule_call", delay,
                    tracer._fire, tracer.owner_layer(callback), callback,
                    args, priority=priority,
                )

            def run(self, *args, **kwargs):
                return self._simcore(
                    super().run, "Simulator.run", *args, **kwargs
                )

        return TracedSimulator

    # ------------------------------------------------------------------
    # Class-level boundary wrappers
    # ------------------------------------------------------------------

    def _wrap(self, base: type, method: str, layer, flow_of=None,
              registry=None) -> None:
        """Wrap ``method`` wherever ``base`` or a subclass defines it.

        ``layer=None`` resolves the layer from the receiver's class (a
        ``Node.receive`` belongs to whichever protocol the node runs).
        ``registry`` collects the receivers for :meth:`counters`.
        """
        tracer = self
        stack = self._stack

        def make(original, name):
            def wrapper(obj, *args, **kwargs):
                if registry is not None:
                    registry[id(obj)] = obj
                own = layer or tracer._layer_of_class(type(obj))
                if stack and stack[-1][_LAYER] == own:
                    return original(obj, *args, **kwargs)
                flow = None
                if flow_of is not None and tracer._recording:
                    flow = flow_of(args, kwargs)
                frame = tracer._enter(
                    own, flow, name if layer else type(obj)
                )
                try:
                    return original(obj, *args, **kwargs)
                finally:
                    tracer._exit(frame)

            wrapper.__name__ = original.__name__
            wrapper.__qualname__ = original.__qualname__
            wrapper.__doc__ = original.__doc__
            return wrapper

        for cls in _class_tree(base):
            original = cls.__dict__.get(method)
            if original is not None:
                setattr(cls, method, make(original, f"{cls.__name__}.{method}"))

    def install(self) -> None:
        """Patch the layer boundaries (for the life of this process)."""
        w = self._wrap
        w(Node, "receive", None, _flow_of_packet, registry=self.nodes)
        w(Link, "send", "netsim", _flow_of_packet, registry=self.links)
        w(BlockCache, "store", "core.cache", _flow_of_store)
        w(BlockCache, "lookup", "core.cache", _flow_of_lookup)
        w(BlockCache, "drop_flow", "core.cache", _flow_of_arg0)
        w(RangeSet, "add", "common")
        w(RangeSet, "remove", "common")
        w(PacedSender, "enqueue", "core.paced", _flow_of_packet)
        w(HopRateController, "on_data", "core.paced")
        w(SeqHoleDetector, "on_packet", "core.paced")
        w(CongestionControl, "on_ack", "tcp.cc")
        w(ContentRegistry, "bind", "content", _flow_of_arg0)
        w(ContentRegistry, "unbind", "content", _flow_of_arg0)
        w(ContentRegistry, "object_of", "content", _flow_of_arg0)
        # FlowPool: construction, the spawn / delivery / completion
        # callbacks protocol code calls back into, and the end-of-run pair.
        w(FlowPool, "__init__", "workload", registry=self.pools)
        w(FlowPool, "_spawn_index", "workload")
        w(FlowPool, "_deliver_cb", "workload", _flow_of_arg0)
        w(FlowPool, "_complete_cb", "workload", _flow_of_arg0)
        w(FlowPool, "_on_tcp_delivery", "workload", _flow_of_arg0)
        w(FlowPool, "finalize", "workload")
        w(FlowPool, "summary", "workload")

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def ledger(self) -> dict:
        """Per-layer span count, self time and share of the traced wall."""
        wall = self.traced_wall_s
        out = {}
        for layer in LAYERS:
            out[f"{layer}.events"] = self.spans_in[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.share"] = self.self_s[layer] / wall
        out["trace.unattributed_share"] = self.self_s[OTHER] / wall
        out["trace.traced_wall_s"] = wall
        return out

    def counters(self, delivered_bytes: int, span_s: float) -> dict:
        """Simulated per-layer counts, read from the objects' public stats."""
        nodes = list(self.nodes.values())
        consumers = [n for n in nodes if isinstance(n, Consumer)]
        midnodes = [n for n in nodes if isinstance(n, Midnode)]
        producers = [n for n in nodes if isinstance(n, Producer)]
        senders = [n for n in nodes if isinstance(n, TcpSender)]
        chain = [ln for ln in self.links.values() if ln.name.startswith("hop")]
        pools = list(self.pools.values())
        caches = [m.cache.stats for m in midnodes]

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        origin_wire = sum(p.wire_bytes_sent for p in producers)
        lookup_b = sum(c.lookup_bytes for c in caches)
        segments = sum(s.data_segments_sent for s in senders)
        retx = sum(s.retransmissions for s in senders)
        events = sum(s.events_executed for s in self.sims)
        jains = [p.fairness.summary()["jain_mean"] for p in pools]
        return {
            "simcore.events_executed": events,
            "simcore.heap_compactions": sum(
                s.heap_compactions for s in self.sims),
            "simcore.events_per_delivered_mb": ratio(
                events, delivered_bytes / 1e6),
            "netsim.packets_offered": sum(
                ln.stats.packets_offered for ln in chain),
            "netsim.packets_delivered": sum(
                ln.stats.packets_delivered for ln in chain),
            "netsim.drops_queue": sum(
                ln.stats.packets_dropped_queue for ln in chain),
            "netsim.drops_loss": sum(
                ln.stats.packets_dropped_loss for ln in chain),
            "netsim.max_queue_bytes": max(
                (ln.stats.max_queue_bytes for ln in chain), default=0),
            "netsim.bottleneck_utilisation": ratio(
                max((ln.stats.busy_time_s for ln in chain), default=0.0),
                span_s),
            "core.interests_sent": sum(c.interests_sent for c in consumers),
            "core.retx_interests": sum(
                c.retransmission_interests for c in consumers),
            "core.tr_expirations": sum(c.tr_expirations for c in consumers),
            "core.shr_requests": (
                sum(c.shr.requests_issued for c in consumers)
                + sum(m.stats.retx_interests_sent for m in midnodes)
            ),
            "core.vph_sent": sum(m.stats.vph_sent for m in midnodes),
            "core.retx_packets": (
                sum(p.retransmitted_packets for p in producers)
                + sum(m.stats.cache_responses for m in midnodes)
            ),
            "core.wire_overhead_ratio": ratio(origin_wire, delivered_bytes),
            "core.cache.lookups": sum(c.lookups for c in caches),
            "core.cache.insertions": sum(c.insertions for c in caches),
            "core.cache.evictions": sum(c.evictions for c in caches),
            "core.cache.hit_ratio": ratio(
                sum(c.hits for c in caches), sum(c.lookups for c in caches)),
            "core.cache.byte_hit_ratio": ratio(
                sum(c.hit_bytes for c in caches), lookup_b),
            "core.cache.cross_hit_ratio": ratio(
                sum(c.cross_hit_bytes for c in caches), lookup_b),
            "content.origin_load_reduction": (
                max(0.0, 1.0 - ratio(origin_wire, delivered_bytes))
                if producers else 0.0
            ),
            "tcp.segments_sent": segments,
            "tcp.retransmissions": retx,
            "tcp.timeouts": sum(s.timeouts for s in senders),
            "tcp.retx_ratio": ratio(retx, segments),
            "tcp.events_per_segment": ratio(
                self.spans_in["tcp.connection"], segments),
            "workload.peak_concurrency": max(
                (p.peak_concurrency for p in pools), default=0),
            "workload.admission_rejects": sum(
                p.admission_rejects for p in pools),
            "workload.budget_peak_mib": sum(
                p.budget.peak_bytes for p in pools) / (1 << 20),
            "workload.budget_breaches": sum(p.budget.breaches for p in pools),
            "workload.jain_mean": ratio(sum(jains), len(jains)),
        }

    def dump(self, path: str) -> None:
        """Write the ledger and the recorded span list as JSON."""
        with open(path, "w") as fh:
            json.dump({
                "ledger": self.ledger(),
                "span_fields": ["id", "parent", "layer", "name",
                                "start_s", "end_s", "flow"],
                "spans_truncated": not self._recording,
                "flows_recorded": len(self._flows),
                "spans": [
                    (i, p, layer, name, round(t0, 7), round(t1, 7), flow)
                    for i, p, layer, name, t0, t1, flow in self.spans
                ],
            }, fh)
