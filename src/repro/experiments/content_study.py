"""Content-centric workloads: Zipf catalog, placement matrix, fan-out.

The paper's information-centric claim (Sec. II-B, IV-A) is that naming
*content* rather than connections lets Midnode caches serve one flow's
bytes to another.  The classic ``workload`` experiment cannot observe
that: every flow requests distinct bytes, so cross-flow hits are
structurally zero.  This study drives the same 5-hop chain with a
content workload (:mod:`repro.content`): flows request named objects
drawn from a seeded Zipf catalog, so concurrent consumers overlap on
the hot objects and the caches get real sharing to exploit.

Three sections, tagged by the ``section`` column:

* ``matrix`` — a cache placement x eviction sweep.  The first row
  (``catalog`` False) is the no-catalog baseline on the default cell
  (cross-flow hit ratio ~0 by construction); the other rows run the
  catalog workload on each placement of
  :data:`repro.content.placement.PLACEMENTS` with each eviction order
  of :data:`repro.core.cache.CACHE_EVICTION_POLICIES`.
  Each cell reports the cache hit ratio, the *cross-flow* hit ratio
  (bytes served from another flow's fetches), origin load and its
  reduction versus delivered bytes, and FCT percentiles.
* ``fanout`` — multicast-tree fan-out driven by the same catalog: many
  subscribers of the hottest object, each its own flow, pull through a
  two-level :class:`~repro.core.multicast.MulticastMidnode` tree; the
  content registry aliases their cache keys so Interests aggregate and
  one upstream copy serves every wave.
* ``sharded`` — a content-enabled :class:`~repro.shard.ShardPlan` cell
  run through the sharded engine, proving catalog state survives the
  process boundary and a checkpoint: rows are bit-identical for any
  ``--shard-jobs`` and across kill-then-resume (see
  ``tests/test_content.py``).

The cache budget is deliberately smaller than the catalog (2 MiB versus
~3 MiB of objects at full scale) so placement and eviction choices have
something to decide; with an over-provisioned cache every cell would
converge to the compulsory-miss floor.
"""

from __future__ import annotations

from repro.content import (
    CachePolicy,
    ContentCatalog,
    ContentRegistry,
    ContentSpec,
    PLACEMENTS,
    object_name,
)
from repro.core import Consumer, LeotpConfig, MulticastMidnode, Producer
from repro.core.cache import CACHE_EVICTION_POLICIES
from repro.experiments.paper import Figure, Run
from repro.experiments.workload import (
    ARRIVAL_RATE_PER_S,
    HOP_DELAY_S,
    HOP_RATE_BPS,
    run_pool,
)
from repro.netsim.link import DuplexLink
from repro.netsim.trace import FlowRecorder
from repro.shard import ShardPlan, run_sharded
from repro.simcore import RngRegistry, Simulator
from repro.workload import WorkloadSpec

# Chain and traffic: the ``workload`` experiment's (``run_pool``), so
# content effects are attributable to the catalog rather than a
# different path.
N_ARRIVALS = 800
MIN_ARRIVALS = 40

# Catalog: ~240 objects, mean 12 kB => ~2.9 MB of distinct content at
# full scale, against a 2 MiB cache budget (4 MiB ceiling, half cache).
N_OBJECTS = 240
MIN_OBJECTS = 16
ZIPF_S = 1.1
MEAN_OBJECT_BYTES = 12_000
SIZE_SIGMA = 0.6
MAX_OBJECT_BYTES = 65_536
MEMORY_CEILING_BYTES = 4 << 20
CACHE_FRACTION = 0.5

# Fan-out tree: subscribers of the hottest object over 8 leaf Midnodes,
# arriving in staggered waves so later waves hit warm leaf caches.
N_SUBSCRIBERS = 1000
MIN_SUBSCRIBERS = 24
N_LEAVES = 8
WAVES = 5
WAVE_GAP_S = 0.4


def _content_spec(scale: float) -> ContentSpec:
    return ContentSpec(
        n_objects=max(int(round(N_OBJECTS * scale)), MIN_OBJECTS),
        zipf_s=ZIPF_S,
        mean_object_bytes=MEAN_OBJECT_BYTES,
        size_sigma=SIZE_SIGMA,
        max_object_bytes=MAX_OBJECT_BYTES,
    )


def _run_cell(run: Run, policy: CachePolicy, catalog: bool) -> dict:
    spec = WorkloadSpec(
        arrival="poisson",
        rate_per_s=ARRIVAL_RATE_PER_S,
        n_flows=max(int(round(N_ARRIVALS * run.scale)), MIN_ARRIVALS),
        size_dist="lognormal",
        mean_size_bytes=MEAN_OBJECT_BYTES,
        sigma=SIZE_SIGMA,
        max_size_bytes=MAX_OBJECT_BYTES,
        content=_content_spec(run.scale) if catalog else None,
    )
    s = run_pool(
        run, spec, protocol="leotp",
        memory_ceiling_bytes=MEMORY_CEILING_BYTES,
        cache_fraction=CACHE_FRACTION, cache_policy=policy,
    )
    return {
        "placement": policy.placement,
        "eviction": policy.eviction,
        "catalog": catalog,
        "arrivals": int(s["arrivals"]),
        "completed": int(s["completed"]),
        "objects": int(s.get("content_objects", 0)),
        "hit_ratio": round(s.get("cache_hit_ratio", 0.0), 6),
        "cross_hit_ratio": round(s.get("cross_hit_ratio", 0.0), 6),
        "origin_MB": round(s.get("origin_bytes", 0.0) / 1e6, 6),
        "origin_load_reduction": round(
            s.get("origin_load_reduction", 0.0), 6
        ),
        "fct_p50_ms": s["fct_p50_s"] * 1e3,
        "fct_p90_ms": s["fct_p90_s"] * 1e3,
        "cache_evictions": int(s.get("cache_pool_evictions", 0)),
        "budget_breaches": int(s["budget_breaches"]),
    }


def _run_fanout(run: Run) -> dict:
    """Thousands of subscribers of one hot object through a Midnode tree."""
    n_subs = max(int(round(N_SUBSCRIBERS * run.scale)), MIN_SUBSCRIBERS)
    rng = RngRegistry(run.seed)
    catalog = ContentCatalog.build(
        _content_spec(run.scale), rng.stream("content:catalog")
    )
    hot = object_name(0)  # rank 0 = most popular
    obj_bytes = catalog.object_size(0)

    sim = Simulator()
    config = LeotpConfig()
    registry = ContentRegistry()
    producer = Producer(sim, "prod", config, content_bytes=obj_bytes)
    root = MulticastMidnode(sim, "root", config)
    root.content = registry
    up = DuplexLink(sim, producer, root, rate_bps=HOP_RATE_BPS, delay_s=0.010)
    root.set_upstream(up.ba)
    leaves = []
    for i in range(N_LEAVES):
        leaf = MulticastMidnode(sim, f"leaf{i}", config)
        leaf.content = registry
        trunk = DuplexLink(
            sim, root, leaf, rate_bps=HOP_RATE_BPS, delay_s=HOP_DELAY_S
        )
        leaf.set_upstream(trunk.ba)
        leaves.append(leaf)
    consumers = []
    for i in range(n_subs):
        flow_id = f"sub{i:05d}"
        registry.bind(flow_id, hot)
        consumer = Consumer(
            sim, flow_id, flow_id, config,
            total_bytes=obj_bytes,
            recorder=FlowRecorder(sim, name=flow_id),
            start_time=(i % WAVES) * WAVE_GAP_S,
        )
        leaf = leaves[i % N_LEAVES]
        access = DuplexLink(sim, leaf, consumer, rate_bps=20e6, delay_s=0.002)
        consumer.out_link = access.ba
        consumers.append(consumer)
    sim.run(until=WAVES * WAVE_GAP_S + 20.0)

    finished = sum(1 for c in consumers if c.finished)
    naive = n_subs * obj_bytes
    mids = [root, *leaves]
    cross_b = sum(m.cache.stats.cross_hit_bytes for m in mids)
    lookup_b = sum(m.cache.stats.lookup_bytes for m in mids)
    return {
        "placement": "tree",
        "eviction": "lru",
        "arrivals": n_subs,
        "completed": finished,
        "objects": 1,
        "hit_ratio": round(
            sum(m.cache.stats.hit_bytes for m in mids) / lookup_b, 6
        ) if lookup_b else 0.0,
        "cross_hit_ratio": round(cross_b / lookup_b, 6) if lookup_b else 0.0,
        "origin_MB": round(producer.wire_bytes_sent / 1e6, 6),
        "origin_load_reduction": round(
            1.0 - producer.wire_bytes_sent / naive, 6
        ),
        "upstream_copies": round(producer.wire_bytes_sent / obj_bytes, 3),
        "interests_aggregated": sum(m.interests_aggregated for m in mids),
        "fanout_packets": sum(m.fanout_packets for m in mids),
    }


# Sharded cell: 4 ground-station pairs on the content workload, the
# gateway/lru policy cell, every fourth shard blacked out mid-run.
SHARD_N_SHARDS = 4
SHARD_ARRIVALS = 220
SHARD_MIN_ARRIVALS = 24
SHARD_OBJECTS = 160
SHARD_MIN_OBJECTS = 16


def content_plan(scale: float = 1.0, seed: int = 0) -> ShardPlan:
    """The study's sharded content plan (same plan for any job count)."""
    return ShardPlan(
        n_shards=SHARD_N_SHARDS,
        seed=seed,
        arrivals_per_shard=max(
            int(round(SHARD_ARRIVALS * scale)), SHARD_MIN_ARRIVALS
        ),
        mean_size_bytes=MEAN_OBJECT_BYTES,
        size_sigma=SIZE_SIGMA,
        max_size_bytes=MAX_OBJECT_BYTES,
        memory_ceiling_bytes=MEMORY_CEILING_BYTES,
        cache_fraction=CACHE_FRACTION,
        n_objects=max(int(round(SHARD_OBJECTS * scale)), SHARD_MIN_OBJECTS),
        zipf_s=ZIPF_S,
        cache_policy=CachePolicy(placement="gateway", eviction="lru"),
    )


_SECTIONS = {
    "matrix": _run_cell,
    "fanout": _run_fanout,
    "sharded": lambda run: [
        dict(section="sharded", **row) for row in run_sharded(
            content_plan(run.scale, run.seed), jobs=run.shard_jobs
        )["rows"]
    ],
}


run = Figure(
    "content_study",
    "Zipf content catalog over a shared chain: cache placement x "
    "eviction matrix, multicast fan-out, and a sharded content cell",
    ("section",),
    grid=[
        ("matrix", CachePolicy(), False),  # no catalog: sharing floor
        *(("matrix", CachePolicy(placement=placement, eviction=eviction), True)
          for placement in PLACEMENTS
          for eviction in CACHE_EVICTION_POLICIES),
        ("fanout",),
        ("sharded",),
    ],
    cell=lambda run, section, *cell: _SECTIONS[section](run, *cell),
    row=lambda run, out, *_: out,
    notes=lambda *_: [
        "matrix: cross_hit_ratio = cache bytes served from another flow's "
        "fetches / bytes looked up; the catalog=False row is the no-catalog "
        "floor (~0 by construction)",
        "fanout: one hot object, subscribers in staggered waves; "
        "upstream_copies ~ 1 means Interest aggregation collapsed the "
        "tree's upstream traffic to a single copy",
        "sharded rows are bit-identical for any --shard-jobs value "
        "and across checkpoint kill/resume",
    ],
    sampler_interval_s=0.2,
)
