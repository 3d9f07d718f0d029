"""Geometry-driven handover churn.

Diffs the constellation layer's time-sliced routes straight into the
one :class:`~repro.faults.timeline.Timeline` a chain runs under —
handover signals, outages on the hops whose real edges changed, and
delays that track the route — so chaos harnesses, invariants, and
recovery metrics all run unmodified under *real* handover cadences
instead of hand-scripted faults.

Pipeline::

    compute_path_schedule(..., on_gap="hold")      # constellation layer
        -> compress_schedule(schedule, factor)     # pack orbit time
        -> churn_timeline(schedule, ..., pair)     # signals, outages, delays
        -> run_chaos(timeline, build)              # unmodified harness
        -> per_handover_reports(recorder, times)   # recovery per handover
"""

from repro.churn.engine import (
    DEFAULT_OUTAGE_S,
    HANDOVER_KINDS,
    churn_timeline,
    compress_schedule,
    handover_times,
    outage_entries,
    signal_times,
)
from repro.churn.metrics import handover_stats, per_handover_reports

__all__ = [
    "DEFAULT_OUTAGE_S",
    "HANDOVER_KINDS",
    "churn_timeline",
    "compress_schedule",
    "handover_stats",
    "handover_times",
    "outage_entries",
    "per_handover_reports",
    "signal_times",
]
