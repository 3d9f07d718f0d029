"""Many-flow workload engine: seeded arrivals, flow pools, memory budgets.

This package turns the repo's single-flow building blocks into
population-scale experiments:

* :mod:`repro.workload.arrivals` — declarative :class:`WorkloadSpec`
  (Poisson or trace arrivals, heavy-tailed sizes, open/closed loop)
  materialised deterministically into flow demands;
* :mod:`repro.workload.pool` — the :class:`FlowPool` multiplexing
  hundreds-to-thousands of LEOTP or TCP flows over one shared chain,
  with per-flow lifecycle management (spawn, complete, abort,
  retirement of soft state from shared nodes);
* :mod:`repro.workload.budget` — per-run memory accounting: a named
  ledger with a hard ceiling, and a shared cache pool splitting one
  capacity across every Midnode's block cache;
* :mod:`repro.workload.metrics` — scale-aware results: flow lifecycle
  records, FCT/goodput, and windowed Jain fairness.

The ``workload`` experiment id (see :mod:`repro.experiments.workload`)
drives all of this end to end.
"""

from repro.workload.arrivals import (
    FlowDemand,
    WorkloadSpec,
    generate_demands,
    offered_load_bytes_s,
)
from repro.workload.budget import MemoryBudget, PooledBlockCache, SharedCachePool
from repro.workload.metrics import FairnessTracker, FlowRecord
from repro.workload.pool import FLOW_STATE_BYTES_PER_NODE, FlowPool

__all__ = [
    "FLOW_STATE_BYTES_PER_NODE",
    "FairnessTracker",
    "FlowDemand",
    "FlowPool",
    "FlowRecord",
    "MemoryBudget",
    "PooledBlockCache",
    "SharedCachePool",
    "WorkloadSpec",
    "generate_demands",
    "offered_load_bytes_s",
]
