"""Shard plans: how a constellation-scale workload splits into shards.

A :class:`ShardPlan` describes one sharded run declaratively: how many
ground-station-pair shards and what each one simulates: its chain,
workload, cache slice, fault and horizon.  The plan is a frozen,
picklable value — a process builds a shard from ``(plan, shard_index)``
alone and runs it from its seed to its horizon, and nothing else ever
reaches a shard, which is the whole determinism argument (see
DESIGN.md §13).

Shard seeds are derived, not shared: shard ``i`` simulates with
``seed * 10_007 + i``, so shards draw from disjoint deterministic RNG
streams and the *same* shard always sees the same randomness no matter
which worker process it lands on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.content.catalog import ContentSpec
from repro.content.placement import CachePolicy
from repro.netsim.topology import HopSpec, uniform_chain_specs
from repro.workload.arrivals import WorkloadSpec


@dataclass(frozen=True, kw_only=True)
class ShardPlan:
    """Declarative description of one sharded workload run.

    Defaults mirror the ``workload`` experiment's chain and traffic so
    per-shard behaviour stays comparable with the single-process
    experiment; only the population is new — ``n_shards`` independent
    ground-station pairs instead of one.
    """

    n_shards: int = 16
    seed: int = 0
    # Per-shard workload (one ground-station pair's traffic).
    arrivals_per_shard: int = 650
    arrival_rate_per_s: float = 150.0
    mean_size_bytes: int = 12_000
    size_sigma: float = 1.2
    max_size_bytes: int = 200_000
    # Per-shard chain.
    n_hops: int = 5
    hop_rate_bps: float = 20e6
    hop_delay_s: float = 0.008
    # Per-shard memory: admission ceiling and the fraction of it that is
    # the shard's cache slice (fixed for the whole run).
    memory_ceiling_bytes: int = 8 << 20
    cache_fraction: float = 0.75
    # Post-arrival drain: simulated time after the last arrival.
    drain_s: float = 8.0
    # Every ``fault_every``-th shard (index % fault_every == fault_phase)
    # suffers a mid-chain blackout, so recovery traffic is part of the
    # steady-state the engine must keep deterministic.  0 disables faults.
    fault_every: int = 4
    fault_phase: int = 2
    fault_at_s: float = 1.0
    fault_duration_s: float = 0.4
    # Content-centric mode (repro.content): with ``n_objects > 0`` every
    # shard's flows request named Zipf-popular objects (sizes from the
    # catalog, parameterised by the size fields above) instead of
    # distinct bytes; the catalog is drawn from the shard's own seed.
    # ``cache_policy`` selects a placement x
    # eviction cell; None is the default cell ``CachePolicy()``
    # (uniform placement, LRU).
    n_objects: int = 0
    zipf_s: float = 0.8
    cache_policy: Optional[CachePolicy] = None

    def __post_init__(self) -> None:
        for name in (
            "n_shards", "arrivals_per_shard", "arrival_rate_per_s",
            "n_hops", "hop_rate_bps", "memory_ceiling_bytes",
        ):
            value = getattr(self, name)
            if not value > 0:  # NaN fails too
                raise ValueError(f"{name} must be positive, got {value!r}")
        for name in (
            "mean_size_bytes", "size_sigma", "max_size_bytes", "hop_delay_s",
            "drain_s", "fault_every", "n_objects",
        ):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        if not 0.0 < self.cache_fraction < 1.0:
            raise ValueError("cache_fraction must be in (0, 1)")
        if not isinstance(self.cache_policy, (CachePolicy, type(None))):
            raise ValueError("cache_policy must be a CachePolicy or None")

    # -- derived geometry ----------------------------------------------

    @property
    def horizon_s(self) -> float:
        """Simulated end time: the arrival window plus the drain."""
        return self.arrivals_per_shard / self.arrival_rate_per_s + self.drain_s

    @property
    def shard_cache_bytes(self) -> int:
        """One shard's cache slice, split across its Midnodes by the
        cache policy's placement weights."""
        return int(self.memory_ceiling_bytes * self.cache_fraction)

    def shard_seed(self, index: int) -> int:
        """Disjoint deterministic seed for shard ``index``."""
        return self.seed * 10_007 + index

    def shard_name(self, index: int) -> str:
        return f"s{index:02d}"

    def workload_spec(self) -> WorkloadSpec:
        content = None
        if self.n_objects > 0:
            content = ContentSpec(
                n_objects=self.n_objects,
                zipf_s=self.zipf_s,
                mean_object_bytes=self.mean_size_bytes,
                size_sigma=self.size_sigma,
                max_object_bytes=self.max_size_bytes,
            )
        return WorkloadSpec(
            arrival="poisson",
            rate_per_s=self.arrival_rate_per_s,
            n_flows=self.arrivals_per_shard,
            size_dist="lognormal",
            mean_size_bytes=self.mean_size_bytes,
            sigma=self.size_sigma,
            max_size_bytes=self.max_size_bytes,
            content=content,
        )

    def hop_specs(self) -> list[HopSpec]:
        return uniform_chain_specs(
            self.n_hops, rate_bps=self.hop_rate_bps, delay_s=self.hop_delay_s
        )

    def has_fault(self, index: int) -> bool:
        return (
            self.fault_every > 0
            and index % self.fault_every == self.fault_phase % self.fault_every
        )
