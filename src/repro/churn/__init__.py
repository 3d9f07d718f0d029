"""Geometry-driven handover churn.

Turns the constellation layer's time-sliced routes into a deterministic
stream of typed topology events (link add/remove, path switch,
ground-station re-attachment, route loss) and adapts that stream onto the
existing fault-injection machinery, so chaos harnesses, invariants, and
recovery metrics all run unmodified under *real* handover cadences
instead of hand-scripted faults.

Pipeline::

    compute_path_schedule(..., on_gap="hold")      # constellation layer
        -> compress_schedule(schedule, factor)     # pack orbit time
        -> events_from_schedule(schedule)          # typed event stream
        -> faults_from_stream(stream, n_links)     # FaultSchedule
        -> run_chaos(faults, build)                # unmodified harness
        -> per_handover_reports(recorder, times)   # recovery per handover
"""

from repro.churn.adapter import DEFAULT_OUTAGE_S, faults_from_stream
from repro.churn.engine import (
    compress_schedule,
    diff_snapshots,
    events_from_schedule,
)
from repro.churn.events import (
    HANDOVER_KINDS,
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
    "GsReattach",
    "LinkAdded",
    "LinkRemoved",
    "PathSwitch",
    "RouteLost",
    "RouteRestored",
    "TopologyEvent",
    "TopologyEventStream",
    "compress_schedule",
    "diff_snapshots",
    "events_from_schedule",
    "faults_from_stream",
    "handover_stats",
    "merge_streams",
    "per_handover_reports",
]
