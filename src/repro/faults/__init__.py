"""Fault injection, recovery invariants, and chaos metrics.

This package turns "LEOTP tolerates LEO churn" from an anecdote into an
assertion: declarative :class:`FaultSchedule`\\ s drive scripted outages,
flaps, delay spikes, bandwidth collapse, correlated loss, and node
crashes against a running topology; an :class:`InvariantMonitor` checks
the protocol's correctness claims while the faults land; and
:func:`recovery_report` quantifies how quickly goodput comes back.
"""

from repro.faults.harness import ChaosResult, run_chaos
from repro.faults.invariants import (
    BoundedRequesterWindow,
    BoundedResponderBuffers,
    ByteExactDelivery,
    CwndSanity,
    Invariant,
    InvariantLimits,
    InvariantMonitor,
    InvariantReport,
    InvariantViolation,
    NoDuplicateDelivery,
    RtoSanity,
    default_invariants,
)
from repro.faults.loss import GilbertElliottLoss
from repro.faults.metrics import RecoveryReport, recovery_report
from repro.faults.schedule import (
    BandwidthCollapse,
    CorrelatedLoss,
    DelaySpike,
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    LinkDown,
    LinkFlap,
    LossBurst,
    NodeCrash,
)

__all__ = [
    "BandwidthCollapse",
    "BoundedRequesterWindow",
    "BoundedResponderBuffers",
    "ByteExactDelivery",
    "ChaosResult",
    "CorrelatedLoss",
    "CwndSanity",
    "DelaySpike",
    "FaultEvent",
    "FaultInjector",
    "FaultSchedule",
    "GilbertElliottLoss",
    "Invariant",
    "InvariantLimits",
    "InvariantMonitor",
    "InvariantReport",
    "InvariantViolation",
    "LinkDown",
    "LinkFlap",
    "LossBurst",
    "NoDuplicateDelivery",
    "NodeCrash",
    "RecoveryReport",
    "RtoSanity",
    "default_invariants",
    "recovery_report",
    "run_chaos",
]
