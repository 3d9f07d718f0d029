"""One-call chaos runs: topology + fault schedule + invariants + metrics.

This stresses the paper's LEO-churn claims (Sec. II-A's handover and
outage dynamics; recovery behaviour of Sec. V-C) well beyond the
figure-level experiments.  When :data:`repro.obs.TRACER` is enabled the
runs also carry packet-level traces, so a failed invariant can be read
back as a recovery timeline via :func:`repro.analysis.run_summary`.

:func:`run_chaos` is the one entry point the chaos regression suite, the
experiment matrix, and the examples share.  It builds a fresh simulator,
asks the caller's ``build(sim, rng)`` for the topology, arms the fault
schedule, runs to ``duration_s`` (under a wall-clock watchdog), and
returns a :class:`ChaosResult` bundling the invariant reports, the
recovery metrics, and the injector's action log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.faults.invariants import (
    InvariantLimits,
    InvariantMonitor,
    InvariantReport,
    InvariantViolation,
)
from repro.faults.metrics import RecoveryReport, recovery_report
from repro.faults.schedule import FaultInjector, FaultSchedule
from repro.obs import METRICS, TRACER
from repro.simcore import RngRegistry, Simulator


@dataclass
class ChaosResult:
    """Everything a chaos scenario produced."""

    protocol: str
    invariants: list[InvariantReport]
    recovery: RecoveryReport
    fault_log: list[tuple[float, str]] = field(default_factory=list)
    faults_applied: int = 0  # faults fired (fault_log also logs restores)
    completed: Optional[bool] = None  # None for open-ended flows
    completed_at_s: Optional[float] = None
    # Snapshots of the obs streams for this run, when tracing/metrics
    # were enabled before the harness call; None otherwise.
    trace_records: Optional[list] = None
    metric_samples: Optional[list] = None
    # The built topology, for post-run inspection (e.g. a multicast
    # builder's extra consumers).  Not serialised by to_dict().
    path: Optional[Any] = field(default=None, repr=False)

    @property
    def invariants_ok(self) -> bool:
        return all(r.ok for r in self.invariants)

    def assert_ok(self) -> None:
        failed = [r for r in self.invariants if not r.ok]
        if failed:
            raise InvariantViolation(
                "; ".join(f"{r.name}: {r.detail}" for r in failed)
            )

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "invariants": [
                {"name": r.name, "ok": r.ok, "detail": r.detail}
                for r in self.invariants
            ],
            "recovery": self.recovery.to_dict(),
            "fault_log": [
                {"t": t, "action": action} for t, action in self.fault_log
            ],
            "completed": self.completed,
            "completed_at_s": self.completed_at_s,
        }


def _fault_window(schedule: FaultSchedule) -> tuple[float, float]:
    if len(schedule) == 0:
        return 0.0, 0.0
    start = min(event.at_s for event in schedule)
    return start, max(schedule.last_fault_end_s, start)


def run_chaos(
    schedule: FaultSchedule,
    build: Callable[[Simulator, RngRegistry], Any],
    duration_s: float = 15.0,
    seed: int = 0,
    recovery_window_s: float = 5.0,
    recovery_fraction: float = 0.8,
    limits: InvariantLimits = InvariantLimits(),
    wall_timeout_s: Optional[float] = 120.0,
) -> ChaosResult:
    """Run one flow over a faulted topology and report how it recovered.

    ``build(sim, rng)`` names the topology: it returns a path exposing
    ``recorder``, ``links``, ``nodes`` and ``wire_bytes_sent`` (every
    built-path type does; a chain is ``partial(build_path,
    spec=PathSpec(...))`` from :mod:`repro.experiments.common`, the
    gateway bridge and multicast tree pass their own builder).

    A path with a LEOTP ``consumer`` runs with the
    :class:`InvariantMonitor` armed and reports completion.  A TCP path
    (``sender`` instead) carries recovery metrics only — its in-order
    delivery is structural — and is the baseline the chaos suite
    compares LEOTP against.
    """
    sim = Simulator()
    rng = RngRegistry(seed)
    path = build(sim, rng)
    consumer = getattr(path, "consumer", None)
    monitor = (
        InvariantMonitor(sim, path, limits=limits)
        if consumer is not None else None
    )
    injector = FaultInjector(sim, rng)
    injector.register_path(path)
    injector.arm(schedule)
    # Snapshot (not drain) the obs streams around the run, so callers
    # batching several chaos runs under one tracer keep the full log.
    rec_mark, sample_mark = len(TRACER.records), len(METRICS.samples)
    sim.run(until=duration_s, wall_timeout_s=wall_timeout_s)

    fault_start, fault_end = _fault_window(schedule)
    completion = consumer.completed_at if consumer is not None else None
    post_window = recovery_window_s
    if completion is not None and completion > fault_end:
        # The flow finished inside the measurement window: only count
        # time it was actually transferring.
        post_window = min(recovery_window_s, completion - fault_end)
    recovery = recovery_report(
        path.recorder, fault_start, fault_end,
        window_s=recovery_window_s,
        post_window_s=post_window,
        recovery_fraction=recovery_fraction,
        wire_bytes_sent=path.wire_bytes_sent,
    )
    finite = consumer is not None and consumer.total_bytes is not None
    return ChaosResult(
        protocol=(
            "leotp" if consumer is not None else f"tcp-{path.sender.cc.name}"
        ),
        invariants=monitor.finalise() if monitor is not None else [],
        recovery=recovery,
        fault_log=list(injector.log),
        faults_applied=injector.faults_applied,
        completed=consumer.finished if finite else None,
        completed_at_s=completion,
        trace_records=TRACER.records[rec_mark:] if TRACER.enabled else None,
        metric_samples=METRICS.samples[sample_mark:] if METRICS.enabled else None,
        path=path,
    )
