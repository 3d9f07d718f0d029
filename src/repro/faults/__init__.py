"""Fault timelines, recovery invariants, and chaos metrics.

This package turns "LEOTP tolerates LEO churn" from an anecdote into an
assertion: a :class:`Timeline` scripts outages, flaps, delay changes,
correlated loss and node crashes against a built path; :func:`check_flow`
checks the protocol's correctness claims on the flow once the faults have
landed; and :func:`recovery_report` quantifies how quickly goodput comes
back.
"""

from repro.common.lazy import lazy_exports

# Each public name and the submodule that defines it.  A name is imported
# on first use, so importing one submodule (``repro.faults.timeline``)
# does not load its siblings.
__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "harness": ("ChaosResult", "run_chaos"),
    "invariants": ("InvariantViolation", "check_flow"),
    "loss": ("GilbertElliottLoss",),
    "metrics": ("RecoveryReport", "recovery_report"),
    "timeline": (
        "CorrelatedLoss", "LinkDown", "LinkFlap", "NodeCrash", "Timeline",
        "TimelineDriver",
    ),
})
