"""Recovery invariants: what must stay true while faults are injected.

An :class:`InvariantMonitor` attaches to a built LEOTP path and watches it
through a run — sampling fast-moving state (RTO, cwnd, buffer levels) on a
periodic probe and auditing terminal state (byte-exact delivery) when the
run finalises.  Checkers are pluggable: each is a small object with a
``name`` plus ``sample``/``finalise`` hooks returning a violation string
or ``None``, so chaos scenarios can add their own assertions.

The default set encodes the paper's implicit correctness claims:

* **byte-exact-delivery** — every byte of the flow reaches the app exactly
  once, in order, despite blackouts/crashes (reliability, Sec. III-B).
* **no-duplicate-delivery** — the in-order delivery stream never hands the
  application a byte twice (duplicates on the wire are fine; duplicates at
  the app are a protocol bug).
* **bounded-requester-window** — the Consumer's in-flight window stays
  bounded during stalls (no Interest storm).
* **bounded-responder-buffers** — Producer/Midnode sending buffers stay
  bounded (the duplicate-absorption machinery works under heavy TR).
* **rto-sanity** — the RTO stays inside [min, max] and per-Interest
  retries respect ``tr_max_retries``.
* **cwnd-sanity** — hop controllers' windows stay positive, finite, and
  below the configured cap even when deliveries stall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.obs.tracer import TRACER
from repro.simcore.process import PeriodicProcess
from repro.simcore.simulator import Simulator


class InvariantViolation(AssertionError):
    """Raised by :meth:`InvariantMonitor.assert_ok` when a check failed."""


@dataclass
class InvariantReport:
    """Outcome of one checker over a whole run."""

    name: str
    ok: bool
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - debug aid
        mark = "ok" if self.ok else "VIOLATED"
        return f"[{mark}] {self.name}" + (f": {self.detail}" if self.detail else "")


@dataclass(frozen=True)
class InvariantLimits:
    """Bounds the sampled invariants assert against."""

    # The Consumer's window cap is adaptive; this is the hard ceiling it
    # must never escape, generous enough for any sane configuration.
    requester_window_limit_bytes: int = 8 << 20
    # Responder buffers target BL_tar (~11 KB); a backlog two orders of
    # magnitude above that means duplicate absorption broke down.
    responder_backlog_limit_bytes: int = 1 << 20


class Invariant:
    """Base checker: override ``sample`` and/or ``finalise``."""

    name = "invariant"

    def sample(self, monitor: "InvariantMonitor") -> Optional[str]:
        return None

    def finalise(self, monitor: "InvariantMonitor") -> Optional[str]:
        return None


class ByteExactDelivery(Invariant):
    name = "byte-exact-delivery"

    def finalise(self, monitor: "InvariantMonitor") -> Optional[str]:
        consumer = monitor.consumer
        total = consumer.total_bytes
        if total is None:
            return None  # open-ended flow: nothing terminal to audit
        if not consumer.finished:
            return (
                f"transfer incomplete: {consumer.bytes_received}/{total} bytes "
                f"received, frontier at {consumer.delivered_bytes}"
            )
        if consumer.delivered_bytes != total and monitor.observes_app_stream:
            return (
                f"app frontier {consumer.delivered_bytes} != flow size {total}"
            )
        if consumer.bytes_received != total:
            return (
                f"first-arrival accounting saw {consumer.bytes_received} bytes "
                f"for a {total}-byte flow"
            )
        return None


class NoDuplicateDelivery(Invariant):
    name = "no-duplicate-delivery"

    def finalise(self, monitor: "InvariantMonitor") -> Optional[str]:
        if not monitor.observes_app_stream:
            return None
        if monitor.app_nonpositive_deliveries:
            return (
                f"{monitor.app_nonpositive_deliveries} non-positive delivery "
                "callbacks (re-delivery or empty delivery)"
            )
        if monitor.app_bytes_delivered != monitor.consumer.delivered_bytes:
            return (
                f"app observed {monitor.app_bytes_delivered} bytes but the "
                f"frontier advanced {monitor.consumer.delivered_bytes}"
            )
        return None


class BoundedRequesterWindow(Invariant):
    name = "bounded-requester-window"

    def sample(self, monitor: "InvariantMonitor") -> Optional[str]:
        limit = monitor.limits.requester_window_limit_bytes
        out = monitor.consumer.outstanding_bytes
        if out > limit:
            return f"{out} bytes in flight (limit {limit})"
        return None

    def finalise(self, monitor: "InvariantMonitor") -> Optional[str]:
        limit = monitor.limits.requester_window_limit_bytes
        peak = monitor.consumer.max_outstanding_bytes
        if peak > limit:
            return f"in-flight peak {peak} bytes (limit {limit})"
        return None


class BoundedResponderBuffers(Invariant):
    name = "bounded-responder-buffers"

    def finalise(self, monitor: "InvariantMonitor") -> Optional[str]:
        limit = monitor.limits.responder_backlog_limit_bytes
        worst: list[str] = []
        for name, sender in monitor.responder_senders():
            if sender.max_backlog_bytes > limit:
                worst.append(f"{name} peaked at {sender.max_backlog_bytes}")
        if worst:
            return f"backlog limit {limit} exceeded: " + "; ".join(worst)
        return None


class RtoSanity(Invariant):
    name = "rto-sanity"

    def sample(self, monitor: "InvariantMonitor") -> Optional[str]:
        rto = monitor.consumer.rto
        if not rto.min_rto_s <= rto.rto_s <= rto.max_rto_s:
            return (
                f"RTO {rto.rto_s:.3f}s outside "
                f"[{rto.min_rto_s}, {rto.max_rto_s}]"
            )
        return None

    def finalise(self, monitor: "InvariantMonitor") -> Optional[str]:
        consumer = monitor.consumer
        if consumer.max_interest_retries > consumer.config.tr_max_retries:
            return (
                f"an Interest was retried {consumer.max_interest_retries} "
                f"times (cap {consumer.config.tr_max_retries})"
            )
        return self.sample(monitor)


class CwndSanity(Invariant):
    name = "cwnd-sanity"

    def sample(self, monitor: "InvariantMonitor") -> Optional[str]:
        import math

        for name, cc in monitor.hop_controllers():
            cwnd = cc.cwnd_bytes
            if not math.isfinite(cwnd) or cwnd <= 0:
                return f"{name} cwnd degenerate: {cwnd}"
            if cwnd > cc.config.max_cwnd_bytes:
                return f"{name} cwnd {cwnd:.0f} above cap {cc.config.max_cwnd_bytes}"
        return None


def default_invariants() -> list[Invariant]:
    return [
        ByteExactDelivery(),
        NoDuplicateDelivery(),
        BoundedRequesterWindow(),
        BoundedResponderBuffers(),
        RtoSanity(),
        CwndSanity(),
    ]


class InvariantMonitor:
    """Watches one LEOTP path; collects violations; renders a report.

    The monitor interposes on the Consumer's in-order delivery callback
    (chaining to any existing one) to observe the exact byte stream the
    application would see.
    """

    MAX_DETAILS_PER_CHECK = 5

    def __init__(
        self,
        sim: Simulator,
        path,
        invariants: Optional[Sequence[Invariant]] = None,
        limits: InvariantLimits = InvariantLimits(),
        sample_interval_s: float = 0.05,
    ) -> None:
        self.sim = sim
        self.path = path
        self.limits = limits
        self.invariants = list(invariants) if invariants is not None else default_invariants()
        self._violations: dict[str, list[str]] = {}
        # Observe the app-level delivery stream.
        self.app_bytes_delivered = 0
        self.app_delivery_calls = 0
        self.app_nonpositive_deliveries = 0
        self.last_app_delivery_at: Optional[float] = None
        self.observes_app_stream = True
        self._chained_deliver = self.consumer.deliver
        self.consumer.deliver = self._on_app_delivery
        self._sampler = PeriodicProcess(sim, sample_interval_s, self._sample)

    # -- topology accessors (used by checkers) --------------------------

    @property
    def consumer(self):
        return self.path.consumer

    @property
    def producer(self):
        return self.path.producer

    @property
    def midnodes(self):
        return getattr(self.path, "midnodes", [])

    def responder_senders(self):
        """(name, PacedSender) pairs for every Responder on the path."""
        for flow_id, flow in self.producer._flows.items():
            yield f"{self.producer.name}:{flow_id}", flow.sender
        for mid in self.midnodes:
            for flow_id, state in mid._flows.items():
                yield f"{mid.name}:{flow_id}", state.sender

    def hop_controllers(self):
        """(name, HopRateController) pairs along the path."""
        yield f"{self.consumer.name}:cc", self.consumer.cc
        for mid in self.midnodes:
            for flow_id, state in mid._flows.items():
                yield f"{mid.name}:{flow_id}:cc", state.cc

    # -- delivery observation -------------------------------------------

    def _on_app_delivery(self, nbytes: int, origin_ts: float) -> None:
        if nbytes <= 0:
            self.app_nonpositive_deliveries += 1
        else:
            self.app_bytes_delivered += nbytes
        self.app_delivery_calls += 1
        self.last_app_delivery_at = self.sim.now
        if self._chained_deliver is not None:
            self._chained_deliver(nbytes, origin_ts)

    # -- checking -------------------------------------------------------

    def _record(self, name: str, detail: str) -> None:
        if TRACER.enabled:
            TRACER.emit(
                self.sim.now, "invariant_violation", name, detail=detail
            )
        details = self._violations.setdefault(name, [])
        if len(details) < self.MAX_DETAILS_PER_CHECK:
            details.append(f"t={self.sim.now:.3f}: {detail}")

    def _sample(self) -> None:
        for inv in self.invariants:
            detail = inv.sample(self)
            if detail:
                self._record(inv.name, detail)

    def finalise(self) -> list[InvariantReport]:
        """Run terminal checks and return one report per invariant."""
        for inv in self.invariants:
            detail = inv.finalise(self)
            if detail:
                self._record(inv.name, detail)
        reports = []
        for inv in self.invariants:
            details = self._violations.get(inv.name, [])
            reports.append(
                InvariantReport(inv.name, ok=not details, detail="; ".join(details))
            )
        return reports

    @property
    def ok(self) -> bool:
        """True while no violation has been recorded (sampled checks only
        until :meth:`finalise` has run)."""
        return not self._violations

    def assert_ok(self) -> None:
        """Finalise and raise :class:`InvariantViolation` on any failure."""
        failed = [r for r in self.finalise() if not r.ok]
        if failed:
            raise InvariantViolation(
                "; ".join(f"{r.name}: {r.detail}" for r in failed)
            )
