"""Sharded parallel simulation engine (DESIGN.md §13–§14).

Partitions a constellation-scale workload into independent shards — one
per ground-station pair, each owning its chain, FlowPool, cache slice,
faults, and tracer slice — and runs every shard from its seed to its
horizon as one task on ``jobs`` processes (the caller and ``jobs - 1``
forked workers), one shard per process at a time.  Results are
bit-identical for any ``jobs`` value.

Scale machinery (DESIGN.md §14): per-shard result streaming with
deterministic merge (:mod:`repro.shard.sink`) and per-shard result
commits for resume (:mod:`repro.shard.checkpoint`) — together they carry
the engine from 10⁴ to 10⁵ flows in RSS bounded by one shard per process,
resumable across process lifetimes.  What crosses the process boundary
is one task's arguments out and one small result dict back per shard.
"""

from repro.common.apportion import apportion
from repro.shard.checkpoint import (
    CheckpointError,
    load_manifest,
    plan_fingerprint,
    resume_point,
    spill_name,
)
from repro.shard.engine import (
    MERGED_SPILL_NAME,
    run_sharded,
    total_row,
)
from repro.shard.plan import ShardPlan
from repro.shard.sink import SpillWriter, iter_jsonl, merge_spills
from repro.shard.worker import ShardError

__all__ = [
    "MERGED_SPILL_NAME",
    "CheckpointError",
    "ShardError",
    "ShardPlan",
    "SpillWriter",
    "apportion",
    "iter_jsonl",
    "load_manifest",
    "merge_spills",
    "plan_fingerprint",
    "resume_point",
    "run_sharded",
    "spill_name",
    "total_row",
]
