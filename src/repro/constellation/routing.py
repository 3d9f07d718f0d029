"""Time-sliced shortest-path routing over the constellation.

Following the paper (Sec. V-C), satellite locations and routes are computed
per time slice "by the route computing module of HYPATIA, which uses the
Floyd-Warshall algorithm", with per-hop RTT derived from distance and the
speed of light.  For a single city pair, Dijkstra over the same
distance-weighted graph yields the identical route at a fraction of the
cost, so that is what we run per slice.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

import networkx as nx
import numpy as np

from repro.constellation.geometry import (
    SPEED_OF_LIGHT_M_S,
    max_gsl_range_m,
)
from repro.constellation.groundstations import GroundStation
from repro.constellation.walker import WalkerConstellation


@dataclass(frozen=True)
class RoutingConfig:
    """Knobs of the routing substrate.

    ``isls_enabled`` selects between the paper's two network variants:
    the current bent-pipe Starlink (False) and the future ISL mesh (True).
    """

    isls_enabled: bool = True
    min_elevation_deg: float = 25.0
    isl_max_range_m: float = 5_014_000.0  # thermosphere-grazing limit


@dataclass(frozen=True)
class PathSnapshot:
    """The route between two ground stations at one instant."""

    time: float
    nodes: tuple[str, ...]  # "gs:Name" and "sat-p-s" labels, endpoint first
    hop_distances_m: tuple[float, ...]
    hop_is_gsl: tuple[bool, ...]

    @property
    def hop_count(self) -> int:
        return len(self.hop_distances_m)

    @property
    def hop_delays_s(self) -> tuple[float, ...]:
        return tuple(d / SPEED_OF_LIGHT_M_S for d in self.hop_distances_m)

    @property
    def total_delay_s(self) -> float:
        return sum(self.hop_delays_s)

    @property
    def total_distance_m(self) -> float:
        return sum(self.hop_distances_m)


class NoRouteError(RuntimeError):
    """Raised when the two ground stations are not connected at some slice."""


class ConstellationRouter:
    """Computes snapshot routes between ground stations."""

    def __init__(
        self,
        constellation: WalkerConstellation,
        ground_stations: Sequence[GroundStation],
        config: RoutingConfig = RoutingConfig(),
    ) -> None:
        if not ground_stations:
            raise ValueError("need at least one ground station")
        self.constellation = constellation
        self.ground_stations = list(ground_stations)
        self.config = config
        self._gs_ecef = np.stack([gs.ecef() for gs in self.ground_stations])
        self._gsl_range_m = max_gsl_range_m(
            constellation.altitude_m, config.min_elevation_deg
        )
        # Precompute the static ISL adjacency (weights change with time).
        pairs = set()
        for i in range(constellation.num_satellites):
            for j in constellation.isl_neighbors(i):
                pairs.add((min(i, j), max(i, j)))
        self._isl_pairs = np.array(sorted(pairs), dtype=int)

    # ------------------------------------------------------------------

    def graph_at(self, t: float) -> nx.Graph:
        """Distance-weighted connectivity graph at time ``t``.

        Nodes are satellite labels ``sat-<plane>-<slot>`` and ground-station
        labels ``gs:<Name>``.
        """
        cons = self.constellation
        sat_pos = cons.positions_ecef(t)
        graph = nx.Graph()

        labels = [str(cons.id_of(i)) for i in range(cons.num_satellites)]
        graph.add_nodes_from(labels)

        if self.config.isls_enabled and len(self._isl_pairs):
            a = self._isl_pairs[:, 0]
            b = self._isl_pairs[:, 1]
            dists = np.linalg.norm(sat_pos[a] - sat_pos[b], axis=1)
            in_range = dists <= self.config.isl_max_range_m
            graph.add_weighted_edges_from(
                (labels[int(i)], labels[int(j)], float(d))
                for i, j, d in zip(a[in_range], b[in_range], dists[in_range])
            )

        for g, gs in enumerate(self.ground_stations):
            gs_label = f"gs:{gs.name}"
            graph.add_node(gs_label)
            dists = np.linalg.norm(sat_pos - self._gs_ecef[g], axis=1)
            visible = np.nonzero(dists <= self._gsl_range_m)[0]
            graph.add_weighted_edges_from(
                (gs_label, labels[int(s)], float(dists[s])) for s in visible
            )
        return graph

    def route_at(self, t: float, gs_a: str, gs_b: str) -> PathSnapshot:
        """Shortest route (by total distance) between two cities at ``t``."""
        graph = self.graph_at(t)
        src, dst = f"gs:{gs_a}", f"gs:{gs_b}"
        try:
            nodes = nx.dijkstra_path(graph, src, dst, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise NoRouteError(f"no route {gs_a} -> {gs_b} at t={t}") from exc
        dists = tuple(
            float(graph[u][v]["weight"]) for u, v in zip(nodes[:-1], nodes[1:])
        )
        is_gsl = tuple(
            u.startswith("gs:") or v.startswith("gs:")
            for u, v in zip(nodes[:-1], nodes[1:])
        )
        return PathSnapshot(t, tuple(nodes), dists, is_gsl)


@dataclass
class PathSchedule:
    """A sequence of route snapshots for one city pair.

    ``gaps`` records ``[start, end)`` intervals during which the pair had
    no route at all (only populated when the schedule was computed with
    ``on_gap="hold"``); during a gap :meth:`at` holds the last route that
    existed, mirroring a forwarder whose FIB entry has gone stale.
    """

    gs_a: str
    gs_b: str
    snapshots: list[PathSnapshot] = field(default_factory=list)
    gaps: list[tuple[float, float]] = field(default_factory=list)

    def at(self, t: float) -> PathSnapshot:
        """The snapshot in force at time ``t`` (last one at or before)."""
        if not self.snapshots:
            raise ValueError("empty schedule")
        i = bisect.bisect_right(self.snapshots, t, key=attrgetter("time"))
        return self.snapshots[max(i - 1, 0)]

    @property
    def mean_hop_count(self) -> float:
        return float(np.mean([s.hop_count for s in self.snapshots]))

    @property
    def mean_delay_s(self) -> float:
        return float(np.mean([s.total_delay_s for s in self.snapshots]))

    def change_times(self) -> list[float]:
        """Times at which the node-level route differs from the previous slice."""
        changes = []
        for prev, cur in zip(self.snapshots[:-1], self.snapshots[1:]):
            if prev.nodes != cur.nodes:
                changes.append(cur.time)
        return changes


def compute_path_schedule(
    router: ConstellationRouter,
    gs_a: str,
    gs_b: str,
    duration_s: float,
    step_s: float = 1.0,
    t0: float = 0.0,
    on_gap: str = "raise",
) -> PathSchedule:
    """Sample the route between two cities every ``step_s`` seconds.

    ``on_gap`` decides what happens when a slice has no route:

    * ``"raise"`` (default) — propagate :class:`NoRouteError`, the strict
      behaviour the figure experiments rely on;
    * ``"hold"`` — record the outage in :attr:`PathSchedule.gaps` and keep
      sampling; :meth:`PathSchedule.at` then holds the previous route
      through the gap.  A pair with no route in *any* slice still raises.
    """
    if duration_s <= 0 or step_s <= 0:
        raise ValueError("duration and step must be positive")
    if on_gap not in ("raise", "hold"):
        raise ValueError(f"on_gap must be 'raise' or 'hold', got {on_gap!r}")
    schedule = PathSchedule(gs_a, gs_b)
    gap_start: Optional[float] = None
    t = t0
    while t < t0 + duration_s:
        try:
            snapshot = router.route_at(t, gs_a, gs_b)
        except NoRouteError:
            if on_gap == "raise":
                raise
            if gap_start is None:
                gap_start = t
        else:
            if gap_start is not None:
                schedule.gaps.append((gap_start, t))
                gap_start = None
            schedule.snapshots.append(snapshot)
        t += step_s
    if gap_start is not None:
        schedule.gaps.append((gap_start, t0 + duration_s))
    if not schedule.snapshots:
        raise NoRouteError(
            f"no route {gs_a} -> {gs_b} in any slice of "
            f"[{t0}, {t0 + duration_s})"
        )
    return schedule
