"""Geometry-driven handover churn.

Turns the constellation layer's time-sliced routes into a deterministic
stream of typed topology events (link add/remove, path switch,
ground-station re-attachment, route loss) and that stream into the one
:class:`~repro.faults.timeline.Timeline` a chain runs under, so chaos
harnesses, invariants, and recovery metrics all run unmodified under
*real* handover cadences instead of hand-scripted faults.

Pipeline::

    compute_path_schedule(..., on_gap="hold")      # constellation layer
        -> compress_schedule(schedule, factor)     # pack orbit time
        -> events_from_schedule(schedule)          # typed event stream
        -> churn_timeline(schedule, stream, ...)   # signals, outages, delays
        -> run_chaos(timeline, build)              # unmodified harness
        -> per_handover_reports(recorder, times)   # recovery per handover
"""

from repro.churn.engine import (
    DEFAULT_OUTAGE_S,
    churn_timeline,
    compress_schedule,
    diff_snapshots,
    events_from_schedule,
    outage_entries,
)
from repro.churn.events import (
    HANDOVER_KINDS,
    SIGNAL_KINDS,
    GsReattach,
    LinkAdded,
    LinkRemoved,
    PathSwitch,
    RouteLost,
    RouteRestored,
    TopologyEvent,
    TopologyEventStream,
    merge_streams,
)
from repro.churn.metrics import handover_stats, per_handover_reports

__all__ = [
    "DEFAULT_OUTAGE_S",
    "HANDOVER_KINDS",
    "SIGNAL_KINDS",
    "GsReattach",
    "LinkAdded",
    "LinkRemoved",
    "PathSwitch",
    "RouteLost",
    "RouteRestored",
    "TopologyEvent",
    "TopologyEventStream",
    "churn_timeline",
    "compress_schedule",
    "diff_snapshots",
    "events_from_schedule",
    "handover_stats",
    "merge_streams",
    "outage_entries",
    "per_handover_reports",
]
