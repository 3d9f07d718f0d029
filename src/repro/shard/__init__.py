"""Sharded parallel simulation engine (DESIGN.md §13–§14).

Partitions a constellation-scale workload into weakly-coupled shards —
one per ground-station pair, each owning its chain, FlowPool, faults,
and tracer slice — and simulates them in parallel processes with a
deterministic bulk-synchronous exchange of small cross-shard state
(cache-pool occupancy, gateway backlog, memory-budget ledger) at fixed
epoch boundaries.  Results are bit-identical for any ``jobs`` value.

Scale machinery (DESIGN.md §14): per-shard result streaming with
deterministic merge (:mod:`repro.shard.sink`), epoch-boundary
checkpoint/resume (:mod:`repro.shard.checkpoint`) — together they
carry the engine from 10⁴ to 10⁵ flows in bounded RSS, resumable across
process lifetimes.  The epoch exchange itself is one allocation tuple
out and one pickled list of full shard reports back per group.
"""

from repro.shard.checkpoint import (
    CheckpointError,
    load_manifest,
    plan_fingerprint,
    resume_point,
    spill_name,
)
from repro.shard.engine import MERGED_SPILL_NAME, run_sharded, total_row
from repro.shard.exchange import (
    ExchangeSignal,
    ShardReport,
    apportion,
    compute_exchange,
    initial_allocations,
    ledger_row,
)
from repro.shard.plan import MIN_CACHE_ALLOC_BYTES, ShardPlan
from repro.shard.sink import SpillWriter, iter_jsonl, merge_spills
from repro.shard.worker import ShardError

__all__ = [
    "MERGED_SPILL_NAME",
    "MIN_CACHE_ALLOC_BYTES",
    "CheckpointError",
    "ExchangeSignal",
    "ShardError",
    "ShardPlan",
    "ShardReport",
    "SpillWriter",
    "apportion",
    "compute_exchange",
    "initial_allocations",
    "iter_jsonl",
    "ledger_row",
    "load_manifest",
    "merge_spills",
    "plan_fingerprint",
    "resume_point",
    "run_sharded",
    "spill_name",
    "total_row",
]
