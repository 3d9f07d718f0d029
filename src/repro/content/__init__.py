"""Content-centric workload model: named objects, popularity, placement.

LEOTP is information-centric — Interests name ``(FlowID, byte-range)``
and any Midnode holding the named bytes may answer (paper Sec. III).
Until this package existed, every simulated flow pulled *distinct*
bytes, so the in-network block cache only ever served retransmissions.
The content model closes that gap:

* :mod:`repro.content.catalog` — a seeded catalog of N named objects
  with Zipf(s) popularity and heavy-tailed sizes; workloads assign each
  flow an object so concurrent consumers request overlapping blocks;
* :mod:`repro.content.registry` — the flow→object binding Midnodes use
  to alias their cache keys: flows keep unique wire FlowIDs while cached
  blocks are shared under the object's name;
* :mod:`repro.content.placement` — the cache placement / eviction
  policy matrix (ground-gateway-heavy vs uniform vs hot-orbit sizing;
  LRU / LFU eviction) studied by the ``content_study`` experiment,
  motivated by "Cache Placement in an NDN Based LEO Satellite Network
  Constellation" (PAPERS.md).

Everything here is deterministic: a catalog is a pure function of
``(ContentSpec, rng state)`` and the registry is plain dict state, so
content-driven shards are byte-identical for any ``jobs`` value and
across kill-then-resume (DESIGN.md §15).
"""

from repro.content.catalog import (
    ContentCatalog,
    ContentSpec,
    object_name,
    zipf_weights,
)
from repro.content.placement import (
    CachePolicy,
    PLACEMENTS,
    placement_weights,
)
from repro.content.registry import ContentRegistry

__all__ = [
    "CachePolicy",
    "ContentCatalog",
    "ContentRegistry",
    "ContentSpec",
    "PLACEMENTS",
    "object_name",
    "placement_weights",
    "zipf_weights",
]
