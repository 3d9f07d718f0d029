"""Cache placement and eviction policy matrix.

"Cache Placement in an NDN Based LEO Satellite Network Constellation"
(PAPERS.md) shows that *where* constellation cache capacity sits
dominates hit ratio under Zipf demand.  This module expresses that
study's axes for our shared-chain pools:

* **placement** — how one global cache budget is split across the
  chain's Midnodes.  ``uniform`` splits evenly; ``gateway`` concentrates
  capacity at the chain edges (the ground-gateway hops, nearest the
  consumers and the producer); ``hot_orbit`` concentrates it mid-chain
  (the heavily shared orbital segment).
* **eviction** — the order each Midnode's cache evicts in when its
  share overflows (:data:`repro.core.cache.CACHE_EVICTION_POLICIES`):
  ``lru`` (least recently touched block) or ``lfu`` (least frequently
  hit block).

A :class:`CachePolicy` names one matrix cell and travels through
``FlowPool(cache_policy=)`` / :class:`~repro.shard.plan.ShardPlan`;
the split itself is :class:`repro.workload.budget.SharedCachePool`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.cache import CACHE_EVICTION_POLICIES

PLACEMENTS = ("uniform", "gateway", "hot_orbit")

#: Weight ratio between emphasised and de-emphasised chain positions.
_EMPHASIS = 4


@dataclass(frozen=True, kw_only=True)
class CachePolicy:
    """One cell of the placement × eviction matrix."""

    placement: str = "uniform"
    eviction: str = "lru"

    def __post_init__(self) -> None:
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"unknown placement {self.placement!r}; "
                f"choose from {PLACEMENTS}"
            )
        if self.eviction not in CACHE_EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.eviction!r}; "
                f"choose from {CACHE_EVICTION_POLICIES}"
            )


def placement_weights(placement: str, n_members: int) -> tuple[int, ...]:
    """Relative (integer) capacity weights for ``n_members`` chain positions.

    Member 0 is the Midnode next to the Producer; the last member is the
    consumer-side hub.  Ties and single-member chains degrade to uniform.
    """
    if n_members < 1:
        raise ValueError("need at least one member")
    if placement not in PLACEMENTS:
        raise ValueError(
            f"unknown placement {placement!r}; choose from {PLACEMENTS}"
        )
    if placement == "uniform" or n_members <= 2:
        return (1,) * n_members
    weights = [1] * n_members
    if placement == "gateway":
        weights[0] = weights[-1] = _EMPHASIS
    else:  # hot_orbit: emphasise the middle position(s)
        mid = n_members // 2
        weights[mid] = _EMPHASIS
        if n_members % 2 == 0:
            weights[mid - 1] = _EMPHASIS
    return tuple(weights)
