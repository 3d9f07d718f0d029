"""Seeded flow arrival and size generation for many-flow workloads.

A workload is described declaratively by a :class:`WorkloadSpec` and
materialised into a concrete list of :class:`FlowDemand` entries by
:func:`generate_demands`.  Generation draws from a single named RNG
stream, so a workload is a pure function of ``(spec, seed)`` — the same
pair always produces byte-identical demands regardless of what else the
experiment randomises.

Two arrival models cover the paper-style evaluations:

* ``"poisson"`` — memoryless arrivals at ``rate_per_s`` (exponential
  inter-arrival times), the standard open-loop traffic model;
* ``"trace"`` — explicit ``(arrival_s, size_bytes)`` pairs, for replaying
  measured or hand-crafted schedules.

Object sizes are heavy-tailed by default (lognormal, parameterised by the
*mean* so specs stay intuitive) with hard min/max clamps to keep a single
elephant from dominating a bounded run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.content.catalog import ContentCatalog, ContentSpec

#: Arrival / size model names accepted by :class:`WorkloadSpec`.
ARRIVAL_MODELS = ("poisson", "trace")
SIZE_DISTS = ("lognormal", "fixed")


@dataclass(frozen=True)
class FlowDemand:
    """One flow the workload wants transferred.

    ``object_id`` names the catalog object the flow requests under a
    content workload (None for classic distinct-bytes flows); its size
    then equals the object's size, so every consumer of an object pulls
    the same byte range.
    """

    arrival_s: float
    size_bytes: int
    object_id: Optional[int] = None


@dataclass(frozen=True, kw_only=True)
class WorkloadSpec:
    """Declarative description of a many-flow workload.

    ``closed_loop`` switches the pool from open-loop (arrivals fire on
    the generated timeline regardless of completions) to closed-loop
    (a fixed ``target_concurrency`` of flows is kept in flight; each
    completion immediately admits the next demand).  The demand list is
    identical in both modes — only the spawn timing differs.
    """

    arrival: str = "poisson"
    rate_per_s: float = 100.0
    n_flows: int = 1000
    #: Used only when ``arrival == "trace"``: (arrival_s, size_bytes) pairs.
    trace: tuple[tuple[float, int], ...] = ()
    size_dist: str = "lognormal"
    mean_size_bytes: int = 8_000
    #: Lognormal shape parameter (sigma of the underlying normal).
    sigma: float = 1.0
    min_size_bytes: int = 1_400
    max_size_bytes: int = 2_000_000
    closed_loop: bool = False
    target_concurrency: int = 32
    #: Content-centric mode: flows request named Zipf-popular objects
    #: instead of distinct bytes (sizes then come from the catalog, not
    #: the lognormal draw above).  See :mod:`repro.content`.
    content: Optional[ContentSpec] = None

    def __post_init__(self) -> None:
        if self.content is not None and self.arrival != "poisson":
            raise ValueError("content workloads require poisson arrivals")
        if self.arrival not in ARRIVAL_MODELS:
            raise ValueError(
                f"unknown arrival model {self.arrival!r}; "
                f"choose from {ARRIVAL_MODELS}"
            )
        if self.size_dist not in SIZE_DISTS:
            raise ValueError(
                f"unknown size distribution {self.size_dist!r}; "
                f"choose from {SIZE_DISTS}"
            )
        if self.arrival == "poisson":
            if self.rate_per_s <= 0:
                raise ValueError("rate_per_s must be positive")
            if self.n_flows <= 0:
                raise ValueError("n_flows must be positive")
        if self.arrival == "trace" and not self.trace:
            raise ValueError("trace arrivals need a non-empty trace")
        for arrival_s, size_bytes in self.trace:
            if arrival_s < 0 or size_bytes <= 0:
                raise ValueError(f"trace entry {(arrival_s, size_bytes)} "
                                 "needs arrival_s >= 0 and size_bytes > 0")
        if any(a[0] > b[0] for a, b in zip(self.trace, self.trace[1:])):
            raise ValueError("trace entries must be sorted by arrival time")
        if self.mean_size_bytes <= 0:
            raise ValueError("mean_size_bytes must be positive")
        if not self.sigma >= 0:
            raise ValueError(f"sigma must be non-negative, got {self.sigma}")
        if not 0 < self.min_size_bytes <= self.max_size_bytes:
            raise ValueError("need 0 < min_size_bytes <= max_size_bytes")
        if self.closed_loop and self.target_concurrency <= 0:
            raise ValueError("target_concurrency must be positive")


def _lognormal_sizes(spec: WorkloadSpec, rng: np.random.Generator, n: int):
    # Parameterise by the mean: E[lognormal(mu, sigma)] = exp(mu + sigma²/2),
    # so mu = ln(mean) - sigma²/2 keeps the configured mean honest.
    mu = math.log(spec.mean_size_bytes) - spec.sigma**2 / 2.0
    sizes = rng.lognormal(mean=mu, sigma=spec.sigma, size=n)
    return np.clip(sizes, spec.min_size_bytes, spec.max_size_bytes)


def generate_demands(
    spec: WorkloadSpec, rng: np.random.Generator
) -> list[FlowDemand]:
    """Materialise a spec into sorted, concrete flow demands.

    Deterministic: the same ``(spec, rng state)`` yields the same list.
    The returned demands are sorted by arrival time (guaranteed for
    Poisson; :class:`WorkloadSpec` validates a trace, so the pool's
    timeline walker can rely on it).
    """
    if spec.arrival == "trace":
        return [
            FlowDemand(arrival_s=float(t), size_bytes=int(size))
            for t, size in spec.trace
        ]

    # Content mode: the catalog's sizes draw first (a deterministic
    # prefix of the stream), then arrivals, then the per-flow Zipf
    # object assignment — all from the one generator, so the workload
    # stays a pure function of (spec, seed).
    if spec.content is not None:
        catalog = ContentCatalog.build(spec.content, rng)
        gaps = rng.exponential(scale=1.0 / spec.rate_per_s, size=spec.n_flows)
        arrivals = np.cumsum(gaps)
        object_ids = catalog.sample(rng, spec.n_flows)
        return [
            FlowDemand(
                arrival_s=float(t),
                size_bytes=catalog.object_size(int(i)),
                object_id=int(i),
            )
            for t, i in zip(arrivals, object_ids)
        ]

    # Poisson: exponential inter-arrival gaps, cumulatively summed.
    gaps = rng.exponential(scale=1.0 / spec.rate_per_s, size=spec.n_flows)
    arrivals = np.cumsum(gaps)
    if spec.size_dist == "fixed":
        sizes = np.full(spec.n_flows, float(spec.mean_size_bytes))
    else:
        sizes = _lognormal_sizes(spec, rng, spec.n_flows)
    return [
        FlowDemand(arrival_s=float(t), size_bytes=int(s))
        for t, s in zip(arrivals, sizes)
    ]


def offered_load_bytes_s(demands: list[FlowDemand]) -> float:
    """Average offered load of a demand list (bytes/s over its span)."""
    if not demands:
        return 0.0
    span = max(demands[-1].arrival_s, 1e-9)
    return sum(d.size_bytes for d in demands) / span
