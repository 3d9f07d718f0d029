"""One shard's simulation state and the task that runs it to completion.

A sharded run is ``n_shards`` independent simulations.  The engine
submits one :func:`run_shard` task per shard; a task builds its
:class:`_ShardState` (or restores it from the shard's last committed
checkpoint), steps it through its epochs locally — simulate to the
epoch end, spill closed flows, take the ledger snapshot, checkpoint on
cadence — finalises it into the shard's result row and *drops it*
before its process claims the next task, so a process never holds more
than one shard.  The engine's own process runs the same function inline
(all shards with ``jobs=1``, its share of them otherwise) — one code
path, two execution modes.

What crosses the process boundary (DESIGN.md §14): the task's arguments
out (plan, shard index, directories, the shard's checkpoint entry when
resuming) and one small result dict back (row, per-epoch ledger
snapshots, the process's id and peak RSS) — measured in the run's
``exchange_*_bytes`` counters.
"""

from __future__ import annotations

import gc
import os
import sys
from typing import TYPE_CHECKING, Optional

from repro.obs.rss import current_rss_bytes
from repro.shard.checkpoint import (
    CheckpointError,
    commit_shard,
    load_shard,
    spill_name,
)
from repro.shard.plan import ShardPlan
from repro.shard.sink import SpillWriter, truncate_file
from repro.simcore.random import RngRegistry
from repro.simcore.simulator import Simulator
from repro.workload.pool import FlowPool

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import FaultInjector

#: Fault-injection target name for the mid-chain blackout link.
_FAULT_LINK = "midlink"


class ShardError(RuntimeError):
    """A shard's simulation failed; carries the shard id and epoch."""

    def __init__(self, shard: int, epoch: int, message: str) -> None:
        super().__init__(
            f"shard {shard} failed at epoch {epoch}: {message}"
        )
        self.shard = shard
        self.epoch = epoch
        self.message = message

    def __reduce__(self):
        # Custom ctor signature: make the exception itself picklable so
        # it survives the executor's result channel intact.
        return (ShardError, (self.shard, self.epoch, self.message))


class _ShardState:
    """One shard's complete simulation: chain, FlowPool, faults.

    The whole object — event heap, RNG streams, cache occupancy, live
    flow endpoints — pickles cleanly, which is what checkpoint/resume
    captures.  The result sink inside the FlowPool serialises as a
    ``(path, durable offset)`` pair and reopens in append mode on
    restore (see :class:`repro.shard.sink.SpillWriter`).
    """

    def __init__(self, plan: ShardPlan, index: int) -> None:
        self.plan = plan
        self.index = index
        self.sim = Simulator()
        self.rng = RngRegistry(plan.shard_seed(index))
        self.pool = FlowPool(
            self.sim,
            self.rng,
            spec=plan.workload_spec(),
            hops=plan.hop_specs(),
            protocol="leotp",
            memory_ceiling_bytes=plan.memory_ceiling_bytes,
            cache_fraction=plan.cache_fraction,
            name=plan.shard_name(index),
            cache_policy=plan.cache_policy,
        )
        self.injector: Optional[FaultInjector] = None
        if plan.has_fault(index):
            # Only a faulted shard loads the fault layer.
            from repro.faults.schedule import (
                FaultInjector, FaultSchedule, LinkDown,
            )

            self.injector = FaultInjector(self.sim, self.rng)
            middle = self.pool.links[len(self.pool.links) // 2]
            self.injector.register_link(_FAULT_LINK, middle)
            self.injector.arm(FaultSchedule([
                LinkDown(
                    at_s=plan.fault_at_s,
                    link=_FAULT_LINK,
                    duration_s=plan.fault_duration_s,
                ),
            ]))
        # One snapshot per completed epoch; its length is the shard's
        # progress, so a restored shard knows where to continue.
        self.ledger: list[dict] = []

    # -- result streaming ----------------------------------------------

    def attach_sink(self, sink_dir: str) -> None:
        """Stream closed flows' rows to this run's per-shard spill file."""
        path = os.path.join(sink_dir, spill_name(self.index))
        self.pool.set_result_sink(SpillWriter(path))

    def spill(self) -> Optional[int]:
        """Epoch-boundary spill + durable flush; returns the byte offset
        (None when no sink is attached)."""
        sink = self.pool._result_sink
        if sink is None:
            return None
        self.pool.spill_closed()
        return sink.flush()

    # -- epoch mechanics ------------------------------------------------

    def run_epoch(self, epoch: int) -> None:
        self.sim.run(until=self.plan.epoch_end_s(epoch))

    def step(self) -> Optional[int]:
        """The shard's next epoch: simulate to its end, spill the flows
        it closed, take the ledger snapshot.  Returns the spill offset."""
        self.run_epoch(len(self.ledger))
        offset = self.spill()
        pool = self.pool
        self.ledger.append({
            "stored": pool.cache_pool.stored_bytes,
            "backlog": pool.backlog_bytes(),
            "budget_total": pool.budget.total_bytes,
            "breaches": pool.budget.breaches,
        })
        return offset

    def finalize(self) -> dict:
        """End the shard's workload and summarise it into one result row."""
        self.pool.finalize()
        # Flows aborted by finalize (reason "unfinished") are the last
        # rows of the shard's spill file.
        if self.spill() is not None:
            self.pool._result_sink.close()
        summary = self.pool.summary()
        row = {
            "shard": self.index,
            "faulted": self.plan.has_fault(self.index),
            "arrivals": int(summary["arrivals"]),
            "completed": int(summary["completed"]),
            "aborted": int(summary["aborted"]),
            "peak_conc": int(summary["peak_concurrency"]),
            "fct_p50_ms": summary["fct_p50_s"] * 1e3,
            "fct_p90_ms": summary["fct_p90_s"] * 1e3,
            "fct_p99_ms": summary["fct_p99_s"] * 1e3,
            "goodput_kBs": summary.get("goodput_mean_bytes_s", 0.0) / 1e3,
            "budget_peak_MiB": summary["budget_peak_bytes"] / (1 << 20),
            "budget_breaches": int(summary["budget_breaches"]),
            "cache_evictions": int(summary.get("cache_pool_evictions", 0)),
            "admission_rejects": int(summary["admission_rejects"]),
            "events": self.sim.events_executed,
        }
        if "cross_hit_ratio" in summary:
            # Content shards additionally report cache-sharing outcomes
            # (absent for classic plans, keeping their rows byte-stable).
            row["objects"] = int(summary["content_objects"])
            row["hit_ratio"] = round(summary["cache_hit_ratio"], 6)
            row["cross_hit_ratio"] = round(summary["cross_hit_ratio"], 6)
            row["origin_MB"] = summary["origin_bytes"] / 1e6
            row["origin_load_reduction"] = round(
                summary["origin_load_reduction"], 6
            )
        return row


# ----------------------------------------------------------------------
# The task (submitted across the process boundary — keep top-level)
# ----------------------------------------------------------------------


def _profiled() -> bool:
    """Whether a profiler already runs in this process: a second cProfile
    would take over its hook (Python < 3.12) or raise (3.12+, where
    cProfile registers as the ``sys.monitoring`` profiler instead)."""
    monitoring = getattr(sys, "monitoring", None)
    return sys.getprofile() is not None or (
        monitoring is not None
        and monitoring.get_tool(monitoring.PROFILER_ID) is not None
    )


def run_shard(
    plan: ShardPlan,
    index: int,
    sink_dir: Optional[str],
    checkpoint: Optional[tuple[str, int]],
    entry: Optional[dict],
    resume_from: Optional[str],
    stop_after_epoch: Optional[int],
    profile_dir: Optional[str],
) -> dict:
    """Run one shard from wherever it stands to completion.

    ``entry`` is the shard's committed checkpoint entry in
    ``resume_from`` (None: start fresh).  A finished entry is returned
    as it stands; an in-progress one restores the pickled state
    (digest-verified) with the spill rewound to the recorded offset.
    ``checkpoint`` is ``(directory, every)``: the state is committed
    after every ``every``-th epoch, the result when the shard finishes.
    With ``stop_after_epoch`` the shard is abandoned after that epoch
    (``row`` stays None).

    Returns the row and ledger snapshots, plus this
    process's id and the RSS peak the task saw in it.

    With ``profile_dir`` the task dumps its own cProfile there — unless
    this process is profiled already (the caller of a profiled run),
    whose profile then covers the shard.
    """
    profiler = None
    if profile_dir is not None and not _profiled():
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    out = {"row": None, "ledger": [], "checkpoints": 0,
           "pid": os.getpid(), "peak_rss_bytes": 0}

    def sample_rss() -> None:
        out["peak_rss_bytes"] = max(
            out["peak_rss_bytes"], current_rss_bytes() or 0
        )

    state = None
    try:
        offset = entry["spill_offset"] if entry is not None else 0
        result = entry["result"] if entry is not None else None
        if result is None:
            if sink_dir is not None:
                # Rows past the last commit belong to epochs about to be
                # re-run; a shard that never committed starts empty.
                truncate_file(
                    os.path.join(sink_dir, spill_name(index)), offset
                )
            if entry is not None:
                state = load_shard(
                    resume_from, entry["file"], entry["digest"]
                )
                if not isinstance(state, _ShardState):
                    raise CheckpointError(
                        f"checkpoint file {entry['file']!r} does not hold "
                        f"a shard state (got {type(state).__name__})"
                    )
            else:
                state = _ShardState(plan, index)
                if sink_dir is not None:
                    state.attach_sink(sink_dir)
            sample_rss()
            for epoch in range(len(state.ledger), plan.n_epochs):
                try:
                    offset = state.step()
                except Exception as exc:
                    raise ShardError(
                        index, epoch, f"{type(exc).__name__}: {exc}"
                    )
                sample_rss()
                # Note: stopping deliberately does NOT force a checkpoint
                # — a mid-run kill lands wherever the cadence last
                # committed, and resume must cope (spill truncation
                # covers the gap).
                done = epoch + 1
                if checkpoint is not None and (
                    done % checkpoint[1] == 0 and done < plan.n_epochs
                ):
                    commit_shard(
                        checkpoint[0], index, done, offset, state=state
                    )
                    out["checkpoints"] += 1
                    sample_rss()
                if stop_after_epoch is not None and epoch >= stop_after_epoch:
                    out["ledger"] = state.ledger
                    return out
            result = {"row": state.finalize(), "ledger": state.ledger}
            offset = state.spill()  # finalize closed the last flows
            sample_rss()
        # (An already-finished shard is committed again: that carries it
        # over when the run checkpoints into a different directory.)
        if checkpoint is not None:
            commit_shard(
                checkpoint[0], index, plan.n_epochs, offset, result=result
            )
            out["checkpoints"] += 1
        out.update(result)
        return out
    finally:
        # The simulation graph is cyclic (nodes <-> the simulator's heap,
        # Consumers <-> their access links): without the collection the
        # next shard of this process is built beside this one's corpse.
        state = None
        gc.collect()
        if profiler is not None:
            profiler.disable()
            profiler.dump_stats(os.path.join(
                profile_dir, f"shard-{index:03d}-pid{os.getpid()}.pstats"
            ))
