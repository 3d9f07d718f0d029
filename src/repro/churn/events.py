"""Typed topology events derived from orbital geometry.

The constellation layer produces :class:`~repro.constellation.routing.
PathSchedule` objects — route snapshots per time slice.  This module
defines the *event* view of that data: what changed between consecutive
slices, expressed as a small vocabulary of frozen dataclasses.  The
events are pure data (no simulator coupling); :mod:`repro.churn.engine`
produces them and turns them into
:class:`~repro.faults.timeline.Timeline` entries, and
:mod:`repro.churn.metrics` keys per-handover recovery off their times.

Everything is deterministic: event order is a total order over
``(at_s, pair, kind, detail)``, so two runs over the same schedule
produce byte-identical streams.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Iterator



@dataclass(frozen=True)
class TopologyEvent:
    """Base class: the topology changed at ``at_s`` for city pair ``pair``."""

    at_s: float
    pair: str

    def __post_init__(self) -> None:
        if self.at_s < 0:
            raise ValueError(f"event time must be non-negative, got {self.at_s}")

    @property
    def kind(self) -> str:
        return type(self).__name__

    def sort_key(self) -> tuple:
        extras = tuple(
            str(getattr(self, f.name))
            for f in fields(self)
            if f.name not in ("at_s", "pair")
        )
        return (self.at_s, self.pair, self.kind, extras)


@dataclass(frozen=True)
class LinkAdded(TopologyEvent):
    """An edge joined the active route (``hop_index`` in the *new* route)."""

    a: str = ""
    b: str = ""
    is_gsl: bool = False
    hop_index: int = 0


@dataclass(frozen=True)
class LinkRemoved(TopologyEvent):
    """An edge left the active route (``hop_index`` in the *old* route).

    This is the physically disruptive half of a handover: packets queued
    or in flight on the departed edge are lost.
    """

    a: str = ""
    b: str = ""
    is_gsl: bool = False
    hop_index: int = 0


@dataclass(frozen=True)
class PathSwitch(TopologyEvent):
    """The node-level route changed between two slices."""

    old_nodes: tuple[str, ...] = ()
    new_nodes: tuple[str, ...] = ()
    changed_nodes: int = 0
    delay_delta_s: float = 0.0


@dataclass(frozen=True)
class GsReattach(TopologyEvent):
    """A ground station switched its serving satellite.

    ``side`` is ``"a"`` (producer end) or ``"b"`` (consumer end) of the
    pair's route.
    """

    station: str = ""
    old_sat: str = ""
    new_sat: str = ""
    side: str = "a"


@dataclass(frozen=True)
class RouteLost(TopologyEvent):
    """The pair had no route at all for ``duration_s`` seconds."""

    duration_s: float = 0.0


@dataclass(frozen=True)
class RouteRestored(TopologyEvent):
    """A route exists again after a :class:`RouteLost` gap."""


#: Event kinds that constitute a *handover* (a route disruption the
#: transport must ride out), as opposed to bookkeeping like LinkAdded.
HANDOVER_KINDS = ("PathSwitch", "RouteLost")

#: Event kinds handed to churn-aware congestion control as signals (see
#: :meth:`repro.tcp.connection.TcpSender.notify_churn`): every change a
#: local link layer would report, not the per-edge bookkeeping.
SIGNAL_KINDS = ("PathSwitch", "GsReattach", "RouteLost", "RouteRestored")


class TopologyEventStream:
    """An ordered, queryable collection of topology events."""

    def __init__(self, events: Iterable[TopologyEvent] = ()) -> None:
        self._events: list[TopologyEvent] = sorted(
            events, key=lambda e: e.sort_key()
        )

    def __iter__(self) -> Iterator[TopologyEvent]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def of_kind(self, *kinds: str) -> list[TopologyEvent]:
        return [e for e in self._events if e.kind in kinds]

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for event in self._events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return dict(sorted(out.items()))

    def handover_times(self) -> list[float]:
        """Sorted, de-duplicated times of route-disrupting events."""
        times = sorted({e.at_s for e in self.of_kind(*HANDOVER_KINDS)})
        return times

    @property
    def pairs(self) -> list[str]:
        return sorted({e.pair for e in self._events})


def merge_streams(
    *streams: TopologyEventStream,
) -> TopologyEventStream:
    """Merge per-pair streams into one constellation-wide stream."""
    merged: list[TopologyEvent] = []
    for stream in streams:
        merged.extend(stream)
    return TopologyEventStream(merged)
